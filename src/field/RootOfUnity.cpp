//===- field/RootOfUnity.cpp - Primitive roots of unity -------------------===//

#include "field/RootOfUnity.h"

#include "support/Error.h"
#include "support/Rng.h"

using namespace moma;
using namespace moma::field;
using mw::Bignum;

unsigned moma::field::twoAdicity(const Bignum &Q) {
  // Q - 1 differs from an odd Q only in bit 0, so its trailing zeros are
  // those of Q with bit 0 cleared (an even Q makes Q - 1 odd). One pass
  // over the limbs, no temporaries: the NTT entry points check this on
  // every call.
  if (!Q.isOdd())
    return 0;
  for (size_t I = 0; I < Q.numLimbs(); ++I) {
    std::uint64_t W = Q.limb(I) & (I == 0 ? ~std::uint64_t(1) : ~0ull);
    if (W)
      return unsigned(I * 64 + __builtin_ctzll(W));
  }
  return 0; // Q == 1: Q - 1 is zero
}

Bignum moma::field::rootOfUnityPow2(const Bignum &Q, unsigned S) {
  unsigned MaxS = twoAdicity(Q);
  if (S > MaxS)
    fatalError("rootOfUnityPow2: 2^" + std::to_string(S) +
               " does not divide Q-1 (2-adicity " + std::to_string(MaxS) +
               ")");
  if (S == 0)
    return Bignum(1);

  // Find an element G of order exactly 2^MaxS: take X^((Q-1)/2^MaxS) for
  // random X; it has order 2^MaxS iff its 2^(MaxS-1) power is Q-1 (i.e. -1),
  // which happens for half of all X. Then ω = G^(2^(MaxS-S)) has order 2^S.
  Bignum Odd = (Q - Bignum(1)) >> MaxS;
  Bignum QMinus1 = Q - Bignum(1);
  Rng R(0xD1CEull ^ Q.low64());
  for (unsigned Attempt = 0; Attempt < 4096; ++Attempt) {
    Bignum X = Bignum::random(R, Q - Bignum(2)) + Bignum(2);
    Bignum G = X.powMod(Odd, Q);
    if (G.isOne())
      continue;
    Bignum Check = G.powMod(Bignum::powerOfTwo(MaxS - 1), Q);
    if (Check != QMinus1)
      continue;
    return G.powMod(Bignum::powerOfTwo(MaxS - S), Q);
  }
  fatalError("rootOfUnityPow2: no generator found; is Q prime?");
}

Bignum moma::field::rootOfUnity(const Bignum &Q, std::uint64_t N) {
  if (N == 0 || (N & (N - 1)) != 0)
    fatalError("rootOfUnity: N must be a power of two");
  unsigned S = 0;
  while ((1ull << S) < N)
    ++S;
  return rootOfUnityPow2(Q, S);
}
