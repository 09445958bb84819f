#include "dsp/fft.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

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
  twiddles.swaps.clear();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      twiddles.swaps.push_back(i);
      twiddles.swaps.push_back(j);
    }
  }
  twiddles.n = n;
  twiddles.inverse = inverse;
}

/// One complex value as a 2-double vector [re, im]. GCC/Clang vector
/// extensions: baseline SSE2 on x86-64, plain scalar code where a target
/// has no such registers; either way each lane is one IEEE operation.
using V2 = double __attribute__((vector_size(16)));
/// The same 16 bytes as two integers; comparisons of V2 yield one, with all
/// bits set in a lane where the comparison holds.
using M2 = std::int64_t __attribute__((vector_size(16)));

/// Unaligned load/store: std::complex<double> arrays are only 8-aligned.
V2 load(const double* p) {
  V2 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// True when every component of `d` (n complex values) is finite with
/// |x| <= 2^1000 / n. Then no butterfly can overflow: a stage grows the
/// largest modulus at most twofold (|u +- x w| <= |u| + |x| |w|, and the
/// recurrence twiddles have |w| within a few ulps per step of 1), so
/// after log2(n) stages every modulus, product and sum stays below
/// sqrt(2) 2^1000 up to rounding, far from 2^1024. Finite operands that
/// never overflow never meet inf * 0 or inf - inf, so no NaN arises
/// either, and the plain loop's NaN check could never fire. One
/// branch-free pass over 2-double lanes: |x| by clearing the sign bit,
/// then the lane masks of `|x| <= limit` ANDed together; NaN fails the
/// comparison.
bool cannot_overflow(const double* d, std::size_t n) {
  const double limit = std::ldexp(1.0, 1000) / static_cast<double>(n);
  const V2 bound = {limit, limit};
  const M2 magnitude_bits = {std::numeric_limits<std::int64_t>::max(),
                             std::numeric_limits<std::int64_t>::max()};
  M2 ok = {-1, -1};
  for (std::size_t k = 0; k < n; ++k) {
    const M2 bits = std::bit_cast<M2>(load(d + 2 * k)) & magnitude_bits;
    ok &= std::bit_cast<V2>(bits) <= bound;
  }
  return (ok[0] & ok[1]) != 0;
}

/// A twiddle w = c + i s spread for the lane-wise product below.
struct Twiddle {
  V2 cc;  ///< [c, c]
  V2 ms;  ///< [-s, s]
};

Twiddle spread(const Complex& w) {
  return {V2{w.real(), w.real()}, V2{-w.imag(), w.imag()}};
}

/// One butterfly in registers: (u, x) -> (u + x w, u - x w). The product
/// [a, b] * [c, c] + [b, a] * [-s, s] = [a c - b s, b c + a s] is the plain
/// loop's (a c - b s, a s + b c) bit for bit: b (-s) = -(b s),
/// y + (-z) = y - z, and addition commutes.
void butterfly(V2& u, V2& x, const Twiddle& w) {
  const V2 swapped = __builtin_shufflevector(x, x, 1, 0);
  const V2 v = x * w.cc + swapped * w.ms;
  const V2 top = u + v;
  x = u - v;
  u = top;
}

/// The branch-free butterfly loop for inputs cannot_overflow() admits.
/// Stages len and 2 len run together: the points i+k, i+k+len/2, i+k+len
/// and i+k+3len/2 are closed under both stages, so doing both in registers
/// runs the same butterflies on the same values and halves the passes
/// over memory. An odd stage count ends with one plain stage, len = n.
void fast_stages(double* d, std::size_t n, const Complex* tw) {
  std::size_t len = 2;
  for (; 2 * len <= n; len <<= 2) {
    const std::size_t half = len / 2;
    const Complex* const w1 = tw + (half - 1);  // stage len
    const Complex* const w2 = tw + (len - 1);   // stage 2 len
    for (std::size_t i = 0; i < n; i += 2 * len) {
      double* const p0 = d + 2 * i;
      double* const p1 = p0 + 2 * half;
      double* const p2 = p0 + 2 * len;
      double* const p3 = p2 + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        V2 x0 = load(p0 + 2 * k);
        V2 x1 = load(p1 + 2 * k);
        V2 x2 = load(p2 + 2 * k);
        V2 x3 = load(p3 + 2 * k);
        const Twiddle a = spread(w1[k]);
        butterfly(x0, x1, a);
        butterfly(x2, x3, a);
        butterfly(x0, x2, spread(w2[k]));
        butterfly(x1, x3, spread(w2[k + half]));
        store(p0 + 2 * k, x0);
        store(p1 + 2 * k, x1);
        store(p2 + 2 * k, x2);
        store(p3 + 2 * k, x3);
      }
    }
  }
  if (len == n) {
    const std::size_t half = len / 2;
    const Complex* const w = tw + (half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      V2 top = load(d + 2 * k);
      V2 bottom = load(d + 2 * (k + half));
      butterfly(top, bottom, spread(w[k]));
      store(d + 2 * k, top);
      store(d + 2 * (k + half), bottom);
    }
  }
}

/// The butterfly loop for every other input. The product v = x * w is
/// written out as the compiler's inline complex multiply computes it; the
/// library product (__muldc3) is taken only when both parts are NaN, the
/// one case where its infinity recovery changes a result, so every non-NaN
/// bit matches std::complex.
void checked_stages(double* d, std::size_t n, const Complex* tw) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* const w = tw + (half - 1);
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

  // Both loops walk the interleaved (re, im) doubles that the standard
  // guarantees for std::complex arrays.
  double* const d = reinterpret_cast<double*>(data.data());
  const bool fast = cannot_overflow(d, n);

  const std::size_t* const swaps = twiddles.swaps.data();
  for (std::size_t p = 0; p < twiddles.swaps.size(); p += 2) {
    std::swap(data[swaps[p]], data[swaps[p + 1]]);
  }

  if (fast) {
    fast_stages(d, n, twiddles.w.data());
  } else {
    checked_stages(d, n, twiddles.w.data());
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
