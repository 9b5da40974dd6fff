// Differential tests for the number codec (common/num_text.h). The
// writer must produce the bytes of printf("%.17g") and the scanner must
// read exactly what `std::istream >>` reads: the artifact checksums and
// the set of accepted wire payloads both depend on it, so each is checked
// against the reference implementation it replaced.
#include "common/num_text.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gbx {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

double FromBits(std::uint64_t u) {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

std::uint64_t NextU64(Pcg32* rng) {
  return static_cast<std::uint64_t>(rng->NextU32()) << 32 | rng->NextU32();
}

std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Append17g(double v) {
  std::string out;
  AppendDouble(v, &out);
  return out;
}

// --- writer ---

TEST(NumTextWriterTest, EdgeValuesMatchPrintf) {
  const double edges[] = {0.0,
                          -0.0,
                          0.1,
                          -0.1,
                          1.0,
                          -1.0,
                          0.5,
                          1e-5,
                          123456789.0,
                          9007199254740992.0,
                          1e16,
                          1e17,
                          1e22,
                          1e23,
                          DBL_MIN,
                          -DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          DBL_EPSILON,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          FromBits(0x000fffffffffffffull),  // largest subnormal
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double v : edges) {
    EXPECT_EQ(Append17g(v), Printf17g(v)) << "bits " << Bits(v);
  }
  for (int i = -1000; i <= 1000; ++i) {
    const double v = i;
    ASSERT_EQ(Append17g(v), Printf17g(v));
    ASSERT_EQ(Append17g(v * 1e-3), Printf17g(v * 1e-3));
  }
}

TEST(NumTextWriterTest, MillionRandomBitPatternsMatchPrintf) {
  Pcg32 rng(0x5eed17);
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = FromBits(NextU64(&rng));
    ASSERT_EQ(Append17g(v), Printf17g(v)) << "bits " << Bits(v);
  }
}

// Values printf writes in fixed style (decimal exponent -4..16), where
// artifacts and queries hold nearly all their numbers: probe that range,
// its edges, trailing-zero stripping and exact ties densely.
TEST(NumTextWriterTest, FixedStyleRangeMatchesPrintf) {
  Pcg32 rng(31);
  for (int i = 0; i < 1'000'000; ++i) {  // |v| in [2^-17, 2^60)
    const std::uint64_t exponent = 1023 - 17 + rng.NextBounded(17 + 60);
    const std::uint64_t bits = (NextU64(&rng) & ((1ull << 52) - 1)) |
                               exponent << 52 |
                               static_cast<std::uint64_t>(i & 1) << 63;
    const double v = FromBits(bits);
    ASSERT_EQ(Append17g(v), Printf17g(v)) << "bits " << bits;
  }
  for (int i = 0; i < 200'000; ++i) {  // short decimals
    const double v = static_cast<double>(rng.NextBounded(1'000'000)) /
                     std::pow(10.0, rng.NextInt(0, 12));
    ASSERT_EQ(Append17g(v), Printf17g(v));
  }
  for (int k = -8; k <= 19; ++k) {  // decades and their neighbours
    const double p = std::stod("1e" + std::to_string(k));
    for (const double v : {p, std::nextafter(p, 0.0), std::nextafter(p, 1e300),
                           -p, 5 * p, 9.5 * p}) {
      ASSERT_EQ(Append17g(v), Printf17g(v));
    }
  }
  // Exact ties at the 17th digit: n + r / 2^j with r odd and 18 - j
  // digits in n has exactly 18 significant digits, the last one 5.
  for (int j = 2; j <= 4; ++j) {
    const double lo = std::pow(10.0, 17 - j);
    const double hi = std::min(10 * lo, std::ldexp(1.0, 53 - j));
    for (int i = 0; i < 20'000; ++i) {
      const double n = std::floor(lo + (hi - lo) * rng.NextDouble());
      const double r = 2 * rng.NextInt(0, (1 << (j - 1)) - 1) + 1;
      const double v = n + r / (1 << j);
      ASSERT_EQ(Append17g(v), Printf17g(v));
    }
  }
}

TEST(NumTextWriterTest, IntsAreDecimal) {
  std::string out;
  AppendInt(0, &out);
  out += ' ';
  AppendInt(-2147483647 - 1, &out);
  out += ' ';
  AppendInt(std::numeric_limits<std::uint64_t>::max(), &out);
  out += ' ';
  AppendInt(std::size_t{42}, &out);
  EXPECT_EQ(out, "0 -2147483648 18446744073709551615 42");
}

// --- scanner vs. the istream reference ---

/// What reading doubles until the first failure yields: the values, the
/// offset where reading stopped, and whether a non-blank is left.
struct DoubleRun {
  std::vector<std::uint64_t> bits;
  std::size_t stop = 0;
  bool trailing = false;
};

/// The reader this codec replaced: commas (when they separate) become
/// blanks, then `>> double` until failure, then `>> std::string`.
DoubleRun ReferenceDoubles(std::string text, bool comma_is_blank) {
  if (comma_is_blank) {
    for (char& c : text) {
      if (c == ',') c = ' ';
    }
  }
  std::istringstream in(text);
  DoubleRun run;
  double v = 0.0;
  while (in >> v) run.bits.push_back(Bits(v));
  in.clear();
  // Through the buffer: tellg() fails once eofbit is set.
  run.stop = static_cast<std::size_t>(
      in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in));
  std::string rest;
  run.trailing = static_cast<bool>(in >> rest);
  return run;
}

DoubleRun ScannerDoubles(const std::string& text, bool comma_is_blank) {
  NumScanner in(text, comma_is_blank ? NumScanner::kCommaIsBlank
                                     : NumScanner::kSpace);
  DoubleRun run;
  double v = 0.0;
  while (in.ReadDouble(&v)) run.bits.push_back(Bits(v));
  run.stop = in.pos();
  run.trailing = !in.AtEnd();
  return run;
}

void ExpectSameDoubles(const std::string& text) {
  for (const bool comma : {false, true}) {
    const DoubleRun want = ReferenceDoubles(text, comma);
    const DoubleRun got = ScannerDoubles(text, comma);
    ASSERT_EQ(got.bits, want.bits) << "'" << text << "' comma=" << comma;
    ASSERT_EQ(got.stop, want.stop) << "'" << text << "' comma=" << comma;
    ASSERT_EQ(got.trailing, want.trailing)
        << "'" << text << "' comma=" << comma;
  }
}

// Fragments the soups are glued from: number pieces, whole tokens the
// grammar treats specially, blanks, and junk.
const char* const kFragments[] = {
    "0", "1", "7", "00", "123", "9999999999999999999999", ".", "e", "E",
    "+", "-", "x", "p", "i", "n", "a", "f", "@", "#",
    " ", "  ", "\t", "\n", "\r", "\v", "\f", ",", ", ",
    ".5", "5.", "-.5", "+.5", "+5", "-0", "+0", "0.5-3", "1e5e3", "1.2.3",
    "1e", "1E", "1e+", "1e-", "e5", ".e5", "5.e3", "1e999", "-1e999",
    "1e-400", "-1e-400", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "4.9406564584124654e-324",
    "1.7976931348623157e308", "1.7976931348623159e308", "0x1p3", "0X10",
    "inf", "-inf", "+inf", "infinity", "nan", "-nan", "NaN", "nan(1)",
    "2147483647", "2147483648", "-2147483648", "-2147483649",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "18446744073709551615", "18446744073709551616", "-1", "-18446744073709551615",
};

std::string RandomSoup(Pcg32* rng) {
  constexpr int kCount = sizeof(kFragments) / sizeof(kFragments[0]);
  std::string soup;
  const int parts = rng->NextInt(1, 12);
  for (int p = 0; p < parts; ++p) {
    switch (rng->NextInt(0, 9)) {
      case 0:  // a %.17g value from random bits
        soup += Printf17g(FromBits(NextU64(rng)));
        break;
      case 1:  // an ordinary value
        soup += Printf17g(rng->NextGaussian() * 1e3);
        break;
      case 2: {  // a long digit run: past 19 and past 768 digits
        const int n = rng->NextInt(0, 1) ? rng->NextInt(18, 40)
                                         : rng->NextInt(760, 800);
        for (int i = 0; i < n; ++i) {
          soup += static_cast<char>('0' + rng->NextInt(0, 9));
        }
        break;
      }
      default:
        soup += kFragments[rng->NextInt(0, kCount - 1)];
        break;
    }
  }
  return soup;
}

TEST(NumScannerTest, NamedCasesMatchIstream) {
  for (const char* text :
       {"", " ", "0.5,0.25", "0.5 0.25", "0.5-3", "1e", "0.5 1e", "0.5 1e 2",
        "1e999", "0.5 1e999", "1e-400", "-1e-400", "inf", "nan", "0.5 inf",
        ".5", "5.", "+.5", "-.", "0.5 -.", "0x1p3", "+", "-", "0.5 +",
        "1,,2", ",1", "1\t2\n3\r\v\f4", "1e5e3", "1.2.3", "00.5", "-0",
        "2.4703282292062327e-324", "1.7976931348623159e308"}) {
    ExpectSameDoubles(text);
  }
}

TEST(NumScannerTest, RandomDoubleSoupsMatchIstream) {
  Pcg32 rng(20260401);
  for (int i = 0; i < 50'000; ++i) ExpectSameDoubles(RandomSoup(&rng));
}

// Typed reads in an arbitrary order, as the artifact parsers issue them
// (labels, member ids and seeds between doubles and keywords).
enum class Op { kDouble, kInt, kUint64, kWord };

/// One read's outcome: `value` holds a double's bits or an integer,
/// `word` a word.
struct Step {
  bool ok = false;
  std::uint64_t value = 0;
  std::string word;
  bool operator==(const Step&) const = default;
};

std::vector<Step> ReferenceProgram(const std::string& text,
                                   const std::vector<Op>& ops) {
  std::istringstream in(text);
  std::vector<Step> steps;
  for (const Op op : ops) {
    Step s;
    switch (op) {
      case Op::kDouble: {
        double v = 0.0;
        s.ok = static_cast<bool>(in >> v);
        s.value = Bits(v);
        break;
      }
      case Op::kInt: {
        int v = 0;
        s.ok = static_cast<bool>(in >> v);
        s.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        break;
      }
      case Op::kUint64: {
        std::uint64_t v = 0;
        s.ok = static_cast<bool>(in >> v);
        s.value = v;
        break;
      }
      case Op::kWord:
        s.ok = static_cast<bool>(in >> s.word);
        break;
    }
    if (!s.ok) s = Step{};
    steps.push_back(s);
    if (!s.ok) break;
  }
  return steps;
}

std::vector<Step> ScannerProgram(const std::string& text,
                                 const std::vector<Op>& ops) {
  NumScanner in(text);
  std::vector<Step> steps;
  for (const Op op : ops) {
    Step s;
    switch (op) {
      case Op::kDouble: {
        double v = 0.0;
        s.ok = in.ReadDouble(&v);
        s.value = Bits(v);
        break;
      }
      case Op::kInt: {
        int v = 0;
        s.ok = in.ReadInt(&v);
        s.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        break;
      }
      case Op::kUint64: {
        std::uint64_t v = 0;
        s.ok = in.ReadUint64(&v);
        s.value = v;
        break;
      }
      case Op::kWord: {
        std::string_view w;
        s.ok = in.ReadWord(&w);
        s.word = std::string(w);
        break;
      }
    }
    if (!s.ok) s = Step{};
    steps.push_back(s);
    if (!s.ok) break;
  }
  return steps;
}

TEST(NumScannerTest, RandomTypedReadsMatchIstream) {
  Pcg32 rng(77);
  for (int i = 0; i < 50'000; ++i) {
    const std::string text = RandomSoup(&rng);
    std::vector<Op> ops(rng.NextInt(1, 8));
    for (Op& op : ops) op = static_cast<Op>(rng.NextInt(0, 3));
    ASSERT_EQ(ScannerProgram(text, ops), ReferenceProgram(text, ops))
        << "'" << text << "'";
  }
}

TEST(NumScannerTest, IntLimitsMatchIstream) {
  for (const char* text :
       {"2147483647", "2147483648", "-2147483648", "-2147483649", "+7",
        "-0", "007", "0x10", "12abc", "-", "+", "99999999999999999999",
        "18446744073709551615", "18446744073709551616", "-1",
        "-18446744073709551615", "-18446744073709551616"}) {
    for (const Op op : {Op::kInt, Op::kUint64}) {
      const std::vector<Op> ops = {op, Op::kWord};
      EXPECT_EQ(ScannerProgram(text, ops), ReferenceProgram(text, ops))
          << "'" << text << "'";
    }
  }
}

TEST(NumScannerTest, LinesMatchGetline) {
  for (const char* text : {"", "\n", "a\nb", "a\n\nb\n", " lead\ntrail "}) {
    std::istringstream in(text);
    NumScanner scan(text);
    std::string want;
    std::string_view got;
    while (true) {
      const bool ok = static_cast<bool>(std::getline(in, want));
      ASSERT_EQ(scan.ReadLine(&got), ok) << "'" << text << "'";
      if (!ok) break;
      EXPECT_EQ(got, want);
    }
  }
}

TEST(NumTextRoundTripTest, WrittenDoublesReadBackBitExact) {
  Pcg32 rng(9);
  std::string text;
  std::vector<double> values;
  for (int i = 0; i < 100'000; ++i) {
    const double v = FromBits(NextU64(&rng));
    if (!std::isfinite(v)) continue;
    values.push_back(v);
    AppendDouble(v, &text);
    text += i % 2 ? ',' : ' ';
  }
  NumScanner in(text, NumScanner::kCommaIsBlank);
  for (const double v : values) {
    double got = 0.0;
    ASSERT_TRUE(in.ReadDouble(&got));
    ASSERT_EQ(Bits(got), Bits(v));
  }
  EXPECT_TRUE(in.AtEnd());
}

}  // namespace
}  // namespace gbx
