// top layer consumer: mid/widget.hpp is alive (Widget is used), while
// base/unused.hpp contributes nothing referenced here — dead-include.
#include "base/unused.hpp"
#include "mid/widget.hpp"
namespace arch {
int run() {
  Widget w;
  return w.size;
}
}  // namespace arch
int main() { return arch::run(); }
