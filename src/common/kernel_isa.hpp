// Runs a numeric kernel body at the widest x86-64 vector level the CPU has.
//
// widest(body) calls body() through one of three noinline wrappers, built
// for baseline x86-64, for avx2 and for x86-64-v4 (AVX-512). A body
// written as `[&]() __attribute__((always_inline)) { ... }` is inlined
// into each wrapper, so one kernel source is compiled, and vectorized,
// once per level. on_x86_64_v4(body) builds a body at x86-64-v4 only, for
// a kernel whose lower levels are a separate loop: it returns false, and
// runs nothing, on a CPU below that level. The level is read once, with
// cpuid.
//
// Every level computes the same bits: each kernel fixes every element's
// arithmetic, and the libraries that dispatch here (p2pfl_fl, the fl
// kernels; p2pfl_secagg, the share split) build with -ffp-contract=off,
// so the FMA-capable x86-64-v4 build never fuses a product into an add.
// The dispatch is explicit rather than target_clones because an ifunc
// resolver crashes ThreadSanitizer builds at start-up.
#pragma once

namespace p2pfl {

enum class Isa { kBase, kAvx2, kAvx512 };

#if defined(__x86_64__) && defined(__GNUC__)

inline Isa cpu_isa() {
  static const Isa isa = __builtin_cpu_supports("x86-64-v4") ? Isa::kAvx512
                         : __builtin_cpu_supports("avx2")    ? Isa::kAvx2
                                                             : Isa::kBase;
  return isa;
}

template <class F>
__attribute__((noinline, target("arch=x86-64-v4"))) void on_v4(F& body) {
  body();
}

template <class F>
__attribute__((noinline, target("avx2"))) void on_avx2(F& body) {
  body();
}

template <class F>
__attribute__((noinline)) void on_base(F& body) {
  body();
}

template <class F>
void widest(F&& body) {
  switch (cpu_isa()) {
    case Isa::kAvx512:
      on_v4(body);
      return;
    case Isa::kAvx2:
      on_avx2(body);
      return;
    case Isa::kBase:
      on_base(body);
      return;
  }
}

template <class F>
bool on_x86_64_v4(F&& body) {
  if (cpu_isa() != Isa::kAvx512) return false;
  on_v4(body);
  return true;
}

#else

inline Isa cpu_isa() { return Isa::kBase; }

template <class F>
void widest(F&& body) {
  body();
}

template <class F>
bool on_x86_64_v4(F&&) {
  return false;
}

#endif

inline const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "x86-64-v4";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kBase:
      break;
  }
  return "baseline";
}

}  // namespace p2pfl
