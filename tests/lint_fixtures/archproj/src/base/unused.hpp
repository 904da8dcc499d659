// Dead-include target: top/app.cpp includes this header but never
// references unused_helper (or anything else it provides). Both files
// open namespace arch; a shared namespace name must not count as a use.
namespace arch {
inline int unused_helper() { return 3; }
}  // namespace arch
