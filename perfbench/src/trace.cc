#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int32_t Tracer::Open(const char* name) {
  Span span;
  span.id = static_cast<int32_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = op_id_;
  span.name = name;
  span.start_ns = Now();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::Close(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Now();
  // Spans close in LIFO order (ScopedSpan), so `id` is the top of the stack.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const char* name,
                                        bool ops_only) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (ops_only && span.op_id < 0) continue;
    if (span.end_ns > 0 && std::strcmp(span.name, name) == 0) {
      out.push_back(span.millis());
    }
  }
  return out;
}

slam::Status Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return slam::Status::IoError("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"op\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, static_cast<long long>(s.op_id), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) return slam::Status::IoError("cannot close " + path);
  return slam::Status::OK();
}

}  // namespace perfbench
