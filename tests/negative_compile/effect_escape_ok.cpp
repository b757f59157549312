// MUST COMPILE under clang >= 20 -Wfunction-effects -Werror: the
// sanctioned slow-lane pattern — a KLB_NONBLOCKING function that crosses
// into blocking, allocating code only through KLB_EFFECT_ESCAPE. This is
// note_drain_empty()'s shape, and it guards the harness against a world
// where the escape hatch itself trips the analysis (which would force
// every annotation to be torn out).
#include <mutex>

#include "util/effects.hpp"

namespace {

std::mutex g_mu;
int g_swept = 0;

void sweep() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_swept += *new int(1);  // allocates: legal only inside the escape
}

void sweep_now() KLB_NONBLOCKING {
  KLB_EFFECT_ESCAPE("mux.drain_sweep", sweep());
}

}  // namespace

int main() {
  sweep_now();
  return 0;
}
