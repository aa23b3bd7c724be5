#include "util/math.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace bbrnash {

std::optional<double> find_root_bisect(const std::function<double(double)>& f,
                                       double lo, double hi,
                                       const RootOptions& opts) {
  if (lo > hi) std::swap(lo, hi);
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if (std::signbit(flo) == std::signbit(fhi)) return std::nullopt;

  for (int i = 0; i < opts.max_iterations && (hi - lo) > opts.tolerance; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double ensure_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::domain_error{std::string{"non-finite model value: "} + what +
                            " = " + std::to_string(v)};
  }
  return v;
}

}  // namespace bbrnash
