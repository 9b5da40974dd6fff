# Fails when an ISA kernel object (kernels_avx2 / kernels_avx512) defines
# an external gbx::simd symbol other than its Avx2Ops() / Avx512Ops()
# table getter. Those objects compile under -mavx2 / -mavx512f, so an
# external inline helper they emit (a weak definition at -O0) may be the
# copy the linker keeps for every caller, the scalar level included.
#
#   cmake -DNM=<nm> -DOBJECTS=<avx2.o>|<avx512.o> -P simd_isa_linkage.cmake
string(REPLACE "|" ";" objects "${OBJECTS}")
list(LENGTH objects count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR "expected the two x86 kernel objects, got '${OBJECTS}'")
endif()
foreach(obj IN LISTS objects)
  execute_process(COMMAND "${NM}" -C -g --defined-only "${obj}"
    OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${symbols}")
  foreach(line IN LISTS lines)
    if(line MATCHES "gbx::simd::" AND
       NOT line MATCHES " gbx::simd::internal::Avx(2|512)Ops\\(\\)$")
      message(SEND_ERROR "${obj} exports ${line}")
    endif()
  endforeach()
endforeach()
