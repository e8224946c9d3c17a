// R16 fixture: the runtime-dispatched SHA-256 unit may use SHA-NI directly.
#include <immintrin.h>
__attribute__((target("sha,sse4.1,ssse3"))) static void blocks() {}
bool has_sha() { return __builtin_cpu_supports("sha"); }
