#include "core/gb_io.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/num_text.h"

namespace gbx {

std::string GranularBallsToString(const GranularBallSet& balls) {
  const Matrix& x = balls.scaled_features();
  std::string out;
  // ~20 bytes per %.17g value; one reservation covers most documents.
  out.reserve(static_cast<std::size_t>(x.rows() + balls.size()) *
                  static_cast<std::size_t>(x.cols()) * 20 +
              64);
  out += "gbx-granular-balls v1\ndims ";
  AppendInt(x.cols(), &out);
  out += " classes ";
  AppendInt(balls.num_classes(), &out);
  out += " balls ";
  AppendInt(balls.size(), &out);
  out += " samples ";
  AppendInt(x.rows(), &out);
  out += '\n';
  for (const GranularBall& ball : balls.balls()) {
    out += "ball ";
    AppendInt(ball.label, &out);
    out += ' ';
    AppendDouble(ball.radius, &out);
    out += ' ';
    AppendInt(ball.center_index, &out);
    for (double c : ball.center) {
      out += ' ';
      AppendDouble(c, &out);
    }
    out += " members ";
    AppendInt(ball.members.size(), &out);
    for (int m : ball.members) {
      out += ' ';
      AppendInt(m, &out);
    }
    out += '\n';
  }
  out += "features\n";
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.Row(i);
    for (int j = 0; j < x.cols(); ++j) {
      if (j > 0) out += ' ';
      AppendDouble(row[j], &out);
    }
    out += '\n';
  }
  return out;
}

StatusOr<GranularBallSet> GranularBallsFromString(std::string_view text) {
  NumScanner in(text);
  std::string_view line;
  if (!in.ReadLine(&line) || line != "gbx-granular-balls v1") {
    return Status::InvalidArgument("bad magic line");
  }
  std::string_view tok;
  int dims = 0;
  int classes = 0;
  int num_balls = 0;
  int samples = 0;
  {
    std::string_view k1, k2, k3, k4;
    if (!(in.ReadWord(&k1) && in.ReadInt(&dims) && in.ReadWord(&k2) &&
          in.ReadInt(&classes) && in.ReadWord(&k3) &&
          in.ReadInt(&num_balls) && in.ReadWord(&k4) &&
          in.ReadInt(&samples)) ||
        k1 != "dims" || k2 != "classes" || k3 != "balls" || k4 != "samples") {
      return Status::InvalidArgument("bad header line");
    }
  }
  if (dims <= 0 || classes <= 0 || num_balls < 0 || samples < 0) {
    return Status::InvalidArgument("non-positive header values");
  }
  // Every declared number needs at least two input bytes ("0 "), so a
  // header promising more data than the input holds is corrupt — reject
  // it before allocating (a crafted header must not trigger a
  // multi-gigabyte allocation).
  const long long budget = static_cast<long long>(text.size()) / 2;
  if (static_cast<long long>(samples) * dims > budget ||
      static_cast<long long>(num_balls) * dims > budget) {
    return Status::InvalidArgument("header declares more data than input");
  }

  std::vector<GranularBall> balls;
  balls.reserve(num_balls);
  for (int b = 0; b < num_balls; ++b) {
    if (!in.ReadWord(&tok) || tok != "ball") {
      return Status::InvalidArgument("expected 'ball' record " +
                                     std::to_string(b));
    }
    GranularBall ball;
    if (!(in.ReadInt(&ball.label) && in.ReadDouble(&ball.radius) &&
          in.ReadInt(&ball.center_index))) {
      return Status::InvalidArgument("truncated ball header");
    }
    if (!std::isfinite(ball.radius) || ball.radius < 0.0) {
      return Status::InvalidArgument("ball " + std::to_string(b) +
                                     " has a negative or non-finite radius");
    }
    if (ball.center_index < -1 || ball.center_index >= samples) {
      return Status::OutOfRange("ball " + std::to_string(b) +
                                " center index out of range");
    }
    ball.center.resize(dims);
    for (int j = 0; j < dims; ++j) {
      if (!in.ReadDouble(&ball.center[j])) {
        return Status::InvalidArgument("truncated ball center");
      }
      if (!std::isfinite(ball.center[j])) {
        return Status::InvalidArgument("ball " + std::to_string(b) +
                                       " has a non-finite center coordinate");
      }
    }
    std::uint64_t member_count = 0;
    if (!(in.ReadWord(&tok) && in.ReadUint64(&member_count)) ||
        tok != "members") {
      return Status::InvalidArgument("expected member list");
    }
    if (member_count > static_cast<std::uint64_t>(budget)) {
      return Status::InvalidArgument("member count exceeds input size");
    }
    ball.members.resize(member_count);
    for (std::size_t m = 0; m < member_count; ++m) {
      if (!in.ReadInt(&ball.members[m])) {
        return Status::InvalidArgument("truncated member list");
      }
      if (ball.members[m] < 0 || ball.members[m] >= samples) {
        return Status::OutOfRange("member id out of range");
      }
    }
    if (ball.label < 0 || ball.label >= classes) {
      return Status::OutOfRange("ball label out of range");
    }
    balls.push_back(std::move(ball));
  }

  if (!in.ReadWord(&tok) || tok != "features") {
    return Status::InvalidArgument("expected 'features' section");
  }
  Matrix x(samples, dims);
  for (int i = 0; i < samples; ++i) {
    for (int j = 0; j < dims; ++j) {
      if (!in.ReadDouble(&x.At(i, j))) {
        return Status::InvalidArgument("truncated feature matrix");
      }
      if (!std::isfinite(x.At(i, j))) {
        return Status::InvalidArgument("non-finite feature at row " +
                                       std::to_string(i));
      }
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing data after feature matrix");
  }
  return GranularBallSet(std::move(balls), std::move(x), classes);
}

Status SaveGranularBalls(const GranularBallSet& balls,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << GranularBallsToString(balls);
  if (!out) return Status::Internal("write failure on " + path);
  return Status::Ok();
}

StatusOr<GranularBallSet> LoadGranularBalls(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return GranularBallsFromString(buffer.str());
}

}  // namespace gbx
