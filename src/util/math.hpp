// Scalar root finding and small numeric helpers for the analytical models.
#pragma once

#include <functional>
#include <optional>

namespace bbrnash {

struct RootOptions {
  double tolerance = 1e-9;  ///< absolute tolerance on the bracket width
  int max_iterations = 200;
};

/// Finds x in [lo, hi] with f(x) ~ 0 by safeguarded bisection.
///
/// Requires f(lo) and f(hi) to have opposite signs (or one of them to be
/// zero); returns std::nullopt when the bracket does not straddle a root.
/// Bisection is chosen over Newton because the model equations are cheap and
/// we value unconditional convergence over iteration count.
std::optional<double> find_root_bisect(const std::function<double(double)>& f,
                                       double lo, double hi,
                                       const RootOptions& opts = {});

/// NaN/Inf guard for model outputs: returns `v` unchanged when finite,
/// otherwise throws std::domain_error naming `what`. A silent NaN from a
/// model evaluation would propagate into shares and NE payoffs and corrupt
/// conclusions without any error; failing loudly at the source is cheaper
/// than auditing downstream.
double ensure_finite(double v, const char* what);

}  // namespace bbrnash
