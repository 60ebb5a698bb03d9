#include "util/mem.hpp"

#include <cstdio>
#include <cstring>

#if !defined(__linux__)
#include <sys/resource.h>
#endif

namespace ethshard::util {

namespace {

#if defined(__linux__)
// Value of a "Key:   N kB" line in /proc/self/status, in bytes; 0 when
// the key is absent or the file cannot be read.
std::uint64_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::uint64_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':')
      continue;
    unsigned long long kb = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &kb) == 1)
      bytes = static_cast<std::uint64_t>(kb) * 1024;
    break;
  }
  std::fclose(f);
  return bytes;
}
#endif

}  // namespace

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  return status_kb("VmRSS");
#else
  return 0;
#endif
}

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  return status_kb("VmHWM");
#else
  // ru_maxrss is kilobytes on Linux and bytes on macOS; this branch only
  // compiles off-Linux, where BSD semantics (bytes) do not apply either —
  // report kilobytes-as-per-POSIX and accept the approximation.
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
}

bool reset_peak_rss() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
#else
  return false;
#endif
}

}  // namespace ethshard::util
