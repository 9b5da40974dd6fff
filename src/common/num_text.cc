#include "common/num_text.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <system_error>

namespace gbx {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Length of the prefix of [p, end) a stream's double extraction
/// consumes: [+-] digits* [. digits*] [(e|E) [+-] digits*], the exponent
/// only after at least one mantissa digit.
std::size_t DoubleTokenLength(const char* p, const char* end) {
  const char* q = p;
  if (q != end && (*q == '+' || *q == '-')) ++q;
  bool mantissa = false;
  bool dot = false;
  for (; q != end; ++q) {
    if (IsDigit(*q)) {
      mantissa = true;
    } else if (*q == '.' && !dot) {
      dot = true;
    } else {
      break;
    }
  }
  if (mantissa && q != end && (*q == 'e' || *q == 'E')) {
    ++q;
    if (q != end && (*q == '+' || *q == '-')) ++q;
    while (q != end && IsDigit(*q)) ++q;
  }
  return static_cast<std::size_t>(q - p);
}

}  // namespace

void AppendDouble(double v, std::string* out) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

bool NumScanner::IsBlank(char c) const {
  return IsSpace(c) || (comma_is_blank_ && c == ',');
}

void NumScanner::SkipBlanks() {
  while (pos_ < text_.size() && IsBlank(text_[pos_])) ++pos_;
}

bool NumScanner::AtEnd() {
  SkipBlanks();
  return pos_ == text_.size();
}

bool NumScanner::ReadDouble(double* v) {
  SkipBlanks();
  const char* begin = text_.data() + pos_;
  const char* end =
      begin + DoubleTokenLength(begin, text_.data() + text_.size());
  pos_ += static_cast<std::size_t>(end - begin);
  // from_chars takes no '+', and a stream takes no sign after it.
  const char* first = begin != end && *begin == '+' ? begin + 1 : begin;
  const std::from_chars_result r = std::from_chars(first, end, *v);
  if (r.ptr != end) return false;  // "1e", "1e+", "-", "."
  if (r.ec == std::errc::result_out_of_range) {
    // The result rounds to ±0 or ±inf. A stream keeps an underflow and
    // rejects an overflow; strtod (what a stream calls) tells which.
    const std::string token(begin, end);
    *v = std::strtod(token.c_str(), nullptr);
    return !std::isinf(*v);
  }
  return r.ec == std::errc();
}

bool NumScanner::ReadIntToken(std::uint64_t* magnitude, bool* negative) {
  SkipBlanks();
  *negative = false;
  if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
    *negative = text_[pos_] == '-';
    ++pos_;
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::size_t first = pos_;
  bool overflow = false;
  *magnitude = 0;
  for (; pos_ < text_.size() && IsDigit(text_[pos_]); ++pos_) {
    const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
    if (*magnitude > (kMax - digit) / 10) {
      overflow = true;
    } else {
      *magnitude = *magnitude * 10 + digit;
    }
  }
  return pos_ != first && !overflow;
}

bool NumScanner::ReadInt(int* v) {
  std::uint64_t magnitude = 0;
  bool negative = false;
  if (!ReadIntToken(&magnitude, &negative)) return false;
  const auto limit = static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max()) +
                     (negative ? 1 : 0);
  if (magnitude > limit) return false;
  *v = negative ? static_cast<int>(-static_cast<std::int64_t>(magnitude))
                : static_cast<int>(magnitude);
  return true;
}

bool NumScanner::ReadUint64(std::uint64_t* v) {
  std::uint64_t magnitude = 0;
  bool negative = false;
  if (!ReadIntToken(&magnitude, &negative)) return false;
  // Like a stream, "-N" reads as the unsigned negation of N.
  *v = negative ? 0 - magnitude : magnitude;
  return true;
}

bool NumScanner::ReadWord(std::string_view* word) {
  SkipBlanks();
  const std::size_t first = pos_;
  while (pos_ < text_.size() && !IsBlank(text_[pos_])) ++pos_;
  *word = text_.substr(first, pos_ - first);
  return pos_ != first;
}

bool NumScanner::ReadLine(std::string_view* line) {
  if (pos_ == text_.size()) return false;
  std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) eol = text_.size();
  *line = text_.substr(pos_, eol - pos_);
  pos_ = eol == text_.size() ? eol : eol + 1;
  return true;
}

}  // namespace gbx
