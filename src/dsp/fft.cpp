#include "dsp/fft.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace bmfusion::dsp {

namespace {
constexpr double kPi = 3.141592653589793238462643383279502884;

void build_twiddles(std::size_t n, bool inverse, FftTwiddles& twiddles) {
  twiddles.w.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi /
                         static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex* const w = twiddles.w.data() + (len / 2 - 1);
    w[0] = Complex(1.0, 0.0);
    for (std::size_t k = 1; k < len / 2; ++k) w[k] = w[k - 1] * wlen;
  }
  twiddles.n = n;
  twiddles.inverse = inverse;
}
}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_inplace(std::vector<Complex>& data, bool inverse) {
  FftTwiddles twiddles;
  fft_inplace(data, inverse, twiddles);
}

void fft_inplace(std::vector<Complex>& data, bool inverse,
                 FftTwiddles& twiddles) {
  const std::size_t n = data.size();
  BMFUSION_REQUIRE(is_power_of_two(n), "fft length must be a power of two");
  if (n == 1) return;
  if (twiddles.n != n || twiddles.inverse != inverse) {
    build_twiddles(n, inverse, twiddles);
  }

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterfly stages over the interleaved (re, im) doubles that the
  // standard guarantees for std::complex arrays. The product v = x * w is
  // written out as the compiler's inline complex multiply computes it; the
  // library product (__muldc3) is taken only when both parts are NaN, the
  // one case where its infinity recovery changes a result, so finite data
  // never pays for a libcall and every non-NaN bit matches std::complex.
  double* const d = reinterpret_cast<double*>(data.data());
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* const w = twiddles.w.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* const top = d + 2 * i;
      double* const bottom = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double a = bottom[2 * k];
        const double b = bottom[2 * k + 1];
        const double c = w[k].real();
        const double s = w[k].imag();
        double vr = a * c - b * s;
        double vi = a * s + b * c;
        if (std::isnan(vr) && std::isnan(vi)) {
          const Complex v = Complex(a, b) * w[k];
          vr = v.real();
          vi = v.imag();
        }
        const double ur = top[2 * k];
        const double ui = top[2 * k + 1];
        top[2 * k] = ur + vr;
        top[2 * k + 1] = ui + vi;
        bottom[2 * k] = ur - vr;
        bottom[2 * k + 1] = ui - vi;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& c : data) c *= scale;
  }
}

std::vector<Complex> fft(const std::vector<Complex>& data) {
  std::vector<Complex> out = data;
  fft_inplace(out, /*inverse=*/false);
  return out;
}

std::vector<Complex> ifft(const std::vector<Complex>& data) {
  std::vector<Complex> out = data;
  fft_inplace(out, /*inverse=*/true);
  return out;
}

std::vector<Complex> fft_real(const std::vector<double>& data) {
  std::vector<Complex> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = Complex(data[i], 0.0);
  }
  fft_inplace(out, /*inverse=*/false);
  return out;
}

}  // namespace bmfusion::dsp
