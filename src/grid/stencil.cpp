#include "grid/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace rsrpa::grid {

bool default_simd() {
  const char* s = std::getenv("RSRPA_SIMD");
  return s == nullptr || std::string_view(s) != "0";
}

double StencilLaplacian::min_eigenvalue_bound() const {
  // The periodic FD Laplacian is separable, so its spectrum is
  // { sx(tx)/hx^2 + sy(ty)/hy^2 + sz(tz)/hz^2 } over the discrete
  // frequencies. A lower bound follows from the per-axis symbol minimum,
  // found by dense sampling (the symbol is a smooth trig polynomial).
  double smin = 0.0;
  constexpr int kSamples = 2048;
  for (int i = 0; i <= kSamples; ++i) {
    const double theta = M_PI * i / kSamples;
    smin = std::min(smin, fd_symbol(coeffs_, theta));
  }
  const double ihx2 = 1.0 / (grid_.hx() * grid_.hx());
  const double ihy2 = 1.0 / (grid_.hy() * grid_.hy());
  const double ihz2 = 1.0 / (grid_.hz() * grid_.hz());
  return smin * (ihx2 + ihy2 + ihz2);
}

}  // namespace rsrpa::grid
