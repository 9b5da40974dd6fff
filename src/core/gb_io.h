// Persistence for granular-ball sets. A fitted granulation is a model
// artifact (GB-kNN inference, offline analysis, plotting); this module
// round-trips it through a self-describing text format:
//
//   gbx-granular-balls v1
//   dims <p> classes <q> balls <m> samples <n>
//   ball <label> <radius> <center_index> <center j=0..p-1> members <k> <ids...>
//   ...
//   features            # n rows of the scaled feature matrix
//   <p doubles per row>
//
// Doubles are the bytes of %.17g and are read as `std::istream >>`
// reads them (common/num_text.h), so values round-trip bit-exact.
#ifndef GBX_CORE_GB_IO_H_
#define GBX_CORE_GB_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/granular_ball.h"

namespace gbx {

/// Writes the ball set (including its scaled feature matrix) to `path`.
Status SaveGranularBalls(const GranularBallSet& balls,
                         const std::string& path);

/// Reads a ball set written by SaveGranularBalls. Input is untrusted:
/// truncation, non-finite radii/centers/features, negative radii, and
/// member/center indices outside [0, samples) all yield a descriptive
/// error Status (never UB).
StatusOr<GranularBallSet> LoadGranularBalls(const std::string& path);

/// Serializes to / parses from a string (used by the file functions and
/// handy in tests).
std::string GranularBallsToString(const GranularBallSet& balls);
StatusOr<GranularBallSet> GranularBallsFromString(std::string_view text);

}  // namespace gbx

#endif  // GBX_CORE_GB_IO_H_
