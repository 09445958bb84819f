// Iterative radix-2 FFT.
//
// The flash-ADC testbench captures power-of-two-length coherent sine records,
// so radix-2 covers every use in this project; the API rejects other lengths
// loudly rather than silently zero-padding.
#pragma once

#include <complex>
#include <vector>

namespace bmfusion::dsp {

using Complex = std::complex<double>;

/// True when n is a power of two (n >= 1).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// Die-invariant tables of one transform size and direction. Twiddle
/// factors go stage by stage: stage `len` (2, 4, ..., n) reads w^k,
/// k < len/2, at offset len/2 - 1. Each stage's factors come from the
/// recurrence w^(k+1) = w^k * w with w = e^(-+2 pi i / len), so they carry
/// that recurrence's rounding and pin the transform's output bits to it.
/// The bit-reversal permutation is kept beside them as its list of swaps.
struct FftTwiddles {
  std::size_t n = 0;       ///< transform size of the tables (0 = not built)
  bool inverse = false;    ///< direction of `w`
  std::vector<Complex> w;  ///< n - 1 factors
  /// Bit-reversal swaps as flattened index pairs (i, j), i < j, in the
  /// order the classic in-place permutation loop performs them.
  std::vector<std::size_t> swaps;
};

/// In-place decimation-in-time radix-2 FFT. `data.size()` must be a power of
/// two. `inverse` applies the conjugate transform *and* the 1/N scaling, so
/// fft(fft(x), inverse=true) == x.
///
/// The output bits are those of the radix-2 loop with std::complex
/// products, whatever the input. Two butterfly loops produce them. Input
/// whose every component is finite with |x| <= 2^1000 / n cannot overflow
/// in any stage, so it cannot make a NaN either; it takes a branch-free
/// loop that runs two stages per pass on 2-double vectors, each lane doing
/// the scalar operations in the scalar order. Anything else (infinities,
/// NaN, near-overflow) takes the plain loop, whose per-butterfly NaN check
/// hands over to the library complex product.
void fft_inplace(std::vector<Complex>& data, bool inverse);

/// Workspace variant of fft_inplace: reads the factors from `twiddles`,
/// rebuilding it only when the size or direction changes, so a reused table
/// makes repeated same-size transforms allocation-free. Bitwise identical
/// to fft_inplace.
void fft_inplace(std::vector<Complex>& data, bool inverse,
                 FftTwiddles& twiddles);

/// Out-of-place forward FFT.
[[nodiscard]] std::vector<Complex> fft(const std::vector<Complex>& data);

/// Out-of-place inverse FFT (includes 1/N scaling).
[[nodiscard]] std::vector<Complex> ifft(const std::vector<Complex>& data);

/// Forward FFT of a real signal; returns the full complex spectrum (length
/// n) for simplicity.
[[nodiscard]] std::vector<Complex> fft_real(const std::vector<double>& data);

}  // namespace bmfusion::dsp
