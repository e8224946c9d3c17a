// R16 fixture: an exempt CPU probe plus a decoy attribute that is not a
// target attribute.
// R16-exempt: probe audited alongside the SHA-256 dispatch.
bool has_sha() { return __builtin_cpu_supports("sha"); }
__attribute__((unused)) static int unused_counter = 0;
