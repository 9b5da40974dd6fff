// The text form of numbers in gbx's text formats: the gbx-wire predict
// payload (serve/protocol.h), gbx-model artifacts (serve/model_io.h),
// granular-ball documents (core/gb_io.h) and CSV output (data/csv.h).
//
// Writing. AppendDouble emits exactly the bytes printf("%.17g") would:
// 17 significant digits, so every finite double reads back bit-exact.
// Shortest round-trip output ("0.1" instead of "0.10000000000000001")
// would be smaller, but artifacts carry a checksum over their bytes, so
// it would change the checksum of every model ever saved; the bytes are
// part of the format. AppendInt emits plain decimal.
//
// Reading. NumScanner walks a string_view and reads tokens with the
// semantics of `std::istream >> double`, `>> int`, `>> std::uint64_t`
// and `>> std::string` in the classic locale, which is what these
// formats were first read with. A number token is
//
//   double  [+-] digits [. digits] [(e|E) [+-] digits]
//           (either digit run may be empty, the exponent needs a
//           mantissa digit before it)
//   int     [+-] digits
//
// taken greedily and not required to end at a blank, so "0.5-3" reads
// as 0.5 then -3. Leading blanks (isspace, plus ',' for
// kCommaIsBlank) are skipped. Hex floats, "inf" and "nan" are not
// numbers; a value that overflows the type is rejected; a double that
// underflows reads as the nearest representable value (possibly ±0).
// A failed read leaves the cursor after the characters a stream would
// have consumed ("1e" and "1e999" are consumed whole). Reads are
// linear in the input and never copy it.
#ifndef GBX_COMMON_NUM_TEXT_H_
#define GBX_COMMON_NUM_TEXT_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gbx {

/// Appends `v` formatted as printf("%.17g").
void AppendDouble(double v, std::string* out);

/// Appends `v` in decimal.
template <typename Int>
void AppendInt(Int v, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

class NumScanner {
 public:
  enum Blanks { kSpace, kCommaIsBlank };

  explicit NumScanner(std::string_view text, Blanks blanks = kSpace)
      : text_(text), comma_is_blank_(blanks == kCommaIsBlank) {}

  bool ReadDouble(double* v);
  bool ReadInt(int* v);
  bool ReadUint64(std::uint64_t* v);
  /// The next run of non-blank characters.
  bool ReadWord(std::string_view* word);
  /// Everything up to the next '\n' (consumed, not returned), without
  /// skipping blanks first; false only when nothing is left.
  bool ReadLine(std::string_view* line);
  /// Skips blanks; true when nothing else is left.
  bool AtEnd();

  std::size_t pos() const { return pos_; }

 private:
  bool IsBlank(char c) const;
  void SkipBlanks();
  /// Reads [+-]digits; false when there are no digits or the magnitude
  /// does not fit 64 bits.
  bool ReadIntToken(std::uint64_t* magnitude, bool* negative);

  std::string_view text_;
  std::size_t pos_ = 0;
  bool comma_is_blank_;
};

}  // namespace gbx

#endif  // GBX_COMMON_NUM_TEXT_H_
