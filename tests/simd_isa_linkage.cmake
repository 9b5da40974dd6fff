# Fails when an ISA kernel object (kernels_avx2 / kernels_avx512) defines
# an external gbx::simd symbol other than its Avx2Ops() / Avx512Ops()
# table getter, or, given OBJDUMP, when any external function it defines
# runs a VEX/EVEX (v*) instruction. An external inline function those
# objects emit (a weak definition at -O0, std:: ones included) may be the
# copy the linker keeps for every caller, the scalar level included, so
# only their internal-linkage kernel bodies may be compiled for the ISA.
#
#   cmake -DNM=<nm> [-DOBJDUMP=<objdump>] -DOBJECTS=<avx2.o>|<avx512.o>
#         -P simd_isa_linkage.cmake
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

if(NOT OBJDUMP)
  return()
endif()
foreach(obj IN LISTS objects)
  # Mangled names: plain [A-Za-z0-9_.$], safe as CMake list items.
  execute_process(COMMAND "${NM}" -g --defined-only "${obj}"
    OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REGEX MATCHALL "[^\n]+" lines "${symbols}")
  set(external "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ [TW] ([A-Za-z0-9_.$]+)$")
      list(APPEND external "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${obj}"
    OUTPUT_VARIABLE disassembly RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} failed on ${obj}")
  endif()
  string(REGEX MATCHALL "[^\n]+" lines "${disassembly}")
  set(current "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
      set(current "${CMAKE_MATCH_1}")
      list(FIND external "${current}" index)
      if(index EQUAL -1)
        set(current "")
      endif()
    elseif(current AND line MATCHES "^ *[0-9a-f]+:\t(v[a-z0-9]+)")
      message(SEND_ERROR
        "${obj}: external ${current} runs ${CMAKE_MATCH_1}")
      set(current "")
    endif()
  endforeach()
endforeach()
