// MUST FAIL under clang >= 20 -Wfunction-effects -Werror: a blocking
// std::mutex acquire inside a KLB_NONBLOCKING function. lock() may sleep,
// so the analysis must reject the call; the packet path takes no lock.
#include <mutex>

#include "util/effects.hpp"

namespace {

std::mutex g_mu;
int g_value = 0;

int read_blocking() KLB_NONBLOCKING {
  std::lock_guard<std::mutex> lk(g_mu);  // blocking acquire: must be diagnosed
  return g_value;
}

}  // namespace

int main() { return read_blocking(); }
