#include "trace.h"

#include <cstdio>

namespace perfbench {

bool Tracer::WriteJsonl(const std::string& path, int32_t round) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    if (s.round != round) continue;
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %u, \"parent\": %u, \"request\": %d, "
                 "\"round\": %d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.id, s.parent, s.request,
                 s.round);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
