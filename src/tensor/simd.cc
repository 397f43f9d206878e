#include "tensor/simd.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "tensor/simd_detail.h"

namespace gradgcl {
namespace simd {

namespace {

bool EnvFlagDefaultOn(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return true;
  return !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool> g_simd_enabled{EnvFlagDefaultOn("GRADGCL_SIMD")};

const KernelTable kScalarTable = {
    Isa::kScalar,
    detail::GemmScalar,
    detail::GemmTransAScalar,
    detail::GemmTransBScalar,
    detail::DotScalar,
    detail::SumScalar,
    detail::SumSqScalar,
    detail::AddScalar,
    detail::SubScalar,
    detail::ScaleScalar,
    detail::HadamardScalar,
    detail::SpmmScalar,
    detail::AdamScalar,
    detail::DotI8Scalar,
    detail::L2I8Scalar,
};

#if defined(GRADGCL_SIMD_AVX2)
// The AVX2 TU is compiled into every x86-64 build; whether it may run
// is a one-time CPU check so old machines fall back to scalar instead
// of faulting on an illegal instruction.
bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

bool Enabled() { return g_simd_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_simd_enabled.store(enabled, std::memory_order_relaxed);
}

Isa CompiledIsa() {
#if defined(GRADGCL_SIMD_AVX2)
  static const bool avx2 = CpuHasAvx2Fma();
  if (avx2) return Isa::kAvx2;
#endif
#if defined(GRADGCL_SIMD_NEON)
  // NEON is baseline on aarch64: no runtime check needed.
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

Isa ActiveIsa() { return Enabled() ? CompiledIsa() : Isa::kScalar; }

bool IsAligned64(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % 64 == 0;
}

const KernelTable& Active() {
  switch (ActiveIsa()) {
#if defined(GRADGCL_SIMD_AVX2)
    case Isa::kAvx2:
      return *Avx2Table();
#endif
#if defined(GRADGCL_SIMD_NEON)
    case Isa::kNeon:
      return *NeonTable();
#endif
    default:
      return kScalarTable;
  }
}

}  // namespace simd
}  // namespace gradgcl
