// R16 fixture: ISA-specific code outside the runtime-dispatched SHA-256 unit.
#include <immintrin.h>
__attribute__((target("avx512f"))) void wide_add() {}
bool has_avx512() { return __builtin_cpu_supports("avx512f"); }
