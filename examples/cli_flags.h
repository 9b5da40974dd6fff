// Whole-token flag parsing shared by the example CLIs (gbx_serve,
// gbx_loadgen, sampler_cli): a numeric flag value is read as exactly one
// number, and a bad flag is reported as a typed INVALID_ARGUMENT line
// before the program does any work.
#ifndef GBX_EXAMPLES_CLI_FLAGS_H_
#define GBX_EXAMPLES_CLI_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "common/num_text.h"
#include "common/status.h"

namespace gbx {
namespace cli {

// Reads `text` as exactly one number token of type T (int, uint64 or
// double): trailing characters, overflow, "nan" and "inf" all fail.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  NumScanner in(text);
  bool read = false;
  if constexpr (std::is_same_v<T, double>) {
    read = in.ReadDouble(out);
  } else if constexpr (std::is_same_v<T, int>) {
    read = in.ReadInt(out);
  } else {
    read = in.ReadUint64(out);
  }
  return read && in.AtEnd();
}

// Prints "PROGRAM: INVALID_ARGUMENT: MESSAGE" to stderr and returns
// false, so a flag parser can `return Reject(...)`.
inline bool Reject(const char* program, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program,
               Status::InvalidArgument(message).ToString().c_str());
  return false;
}

}  // namespace cli
}  // namespace gbx

#endif  // GBX_EXAMPLES_CLI_FLAGS_H_
