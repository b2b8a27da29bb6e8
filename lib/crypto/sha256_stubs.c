/* SHA-256 block compression on the x86-64 SHA extensions.

   [pbft_sha256_hw_blocks state buf off n] runs the FIPS 180-4
   compression function over the [n] consecutive 64-byte blocks of [buf]
   starting at byte [off], updating [state] in place. [state] is a
   32-byte OCaml [bytes] holding the eight running words h0..h7 as
   native-endian 32-bit integers, the layout [Sha256] keeps. The caller
   checks the range; nothing here allocates, raises or reads outside it,
   so both externals are [@@noalloc].

   [pbft_sha256_hw_available] is a CPUID probe: leaf 7 EBX bit 29 (SHA)
   plus SSSE3 and SSE4.1 (leaf 1 ECX bits 9 and 19), the instructions the
   kernel uses. The kernel is compiled for those extensions through a
   per-function target attribute, so the rest of the library needs no
   -m flags. Other architectures build the same two symbols and report
   the kernel unavailable; [Sha256] then runs its OCaml rounds.

   The register layout follows Intel's SHA extensions white paper
   (Gulley et al., 2013): the state lives in two vectors, ABEF and CDGH,
   and each sha256rnds2 runs two rounds. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t k256[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Four rounds, i = 4 * q .. 4 * q + 3, on the schedule words in [w]. */
#define QUAD(q, w)                                                              \
  do {                                                                          \
    __m128i m = _mm_add_epi32((w), _mm_load_si128((const __m128i *)&k256[4 * (q)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);                                \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m, 0x0e));       \
  } while (0)

/* Schedule words 4q .. 4q + 3 from the four previous quads, in place of
   the oldest: w[t-16] + s0(w[t-15]) + w[t-7] + s1(w[t-2]). */
#define NEXT(w0, w1, w2, w3)                                                    \
  (w0) = _mm_sha256msg2_epu32(                                                  \
      _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)), _mm_alignr_epi8((w3), (w2), 4)), (w3))

__attribute__((target("sha,ssse3,sse4.1")))
static void compress_blocks(uint32_t *state, const uint8_t *p, intnat n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)&state[0]);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)&state[4]);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; n > 0; n--, p += 64) {
    const __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QUAD(0, w0);
    QUAD(1, w1);
    QUAD(2, w2);
    QUAD(3, w3);
    for (int q = 4; q < 16; q += 4) {
      NEXT(w0, w1, w2, w3);
      QUAD(q, w0);
      NEXT(w1, w2, w3, w0);
      QUAD(q + 1, w1);
      NEXT(w2, w3, w0, w1);
      QUAD(q + 2, w2);
      NEXT(w3, w0, w1, w2);
      QUAD(q + 3, w3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128((__m128i *)&state[0], _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128((__m128i *)&state[4], _mm_alignr_epi8(dchg, feba, 8));
}

value pbft_sha256_hw_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return Val_false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  return Val_bool((b & (1u << 29)) != 0);
}

value pbft_sha256_hw_blocks(value state, value buf, value off, value n)
{
  compress_blocks((uint32_t *)Bytes_val(state), Bytes_val(buf) + Long_val(off), Long_val(n));
  return Val_unit;
}

#else

value pbft_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Never called: [Sha256] selects this kernel only where the probe
   above reported it. */
value pbft_sha256_hw_blocks(value state, value buf, value off, value n)
{
  (void)state; (void)buf; (void)off; (void)n;
  abort();
}

#endif
