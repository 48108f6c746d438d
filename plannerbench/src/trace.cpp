#include "plannerbench/src/trace.h"

#include <pthread.h>

#include <cstdio>
#include <map>
#include <unordered_map>

namespace plannerbench {

namespace {

std::uint32_t thread_tag() {
  static std::mutex mu;
  static std::unordered_map<pthread_t, std::uint32_t> tags;
  thread_local std::uint32_t tag = [] {
    std::lock_guard<std::mutex> lock(mu);
    return tags.emplace(pthread_self(), static_cast<std::uint32_t>(tags.size() + 1))
        .first->second;
  }();
  return tag;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"plannerbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"request\":%llu,\"span\":%llu,\"parent\":%llu}}%s\n",
                  s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                  s.dur_us(), s.thread,
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

std::vector<double> Tracer::self_us(const std::string& name,
                                    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& s : spans_) {
    by_id[s.id] = &s;
    if (s.parent != 0) child_us[s.parent] += s.dur_us();
  }
  const auto root_name = [&](const SpanRecord* s) -> const std::string& {
    while (s->parent != 0 && by_id.count(s->parent)) s = by_id[s->parent];
    return s->name;
  };
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    if (!path.empty() && root_name(&s) != path) continue;
    const auto it = child_us.find(s.id);
    out.push_back(s.dur_us() - (it == child_us.end() ? 0.0 : it->second));
  }
  return out;
}

std::vector<Tracer::Attribution> Tracer::attribution(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans_) by_id[s.id] = &s;
  std::map<std::uint64_t, Attribution> per_root;  // root span id -> sums
  std::unordered_map<std::uint64_t, std::uint64_t> layers_root;
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0) continue;
    const SpanRecord* parent = by_id.count(s.parent) ? by_id[s.parent] : nullptr;
    if (parent == nullptr || parent->parent != 0) continue;
    if (!path.empty() && parent->name != path) continue;
    if (s.name == "e2e") per_root[parent->id].e2e_us += s.dur_us();
    if (s.name == "layers") layers_root[s.id] = parent->id;
  }
  for (const SpanRecord& s : spans_) {
    const auto it = layers_root.find(s.parent);
    if (it != layers_root.end()) per_root[it->second].layers_us += s.dur_us();
  }
  std::vector<Attribution> out;
  for (const auto& [root, a] : per_root)
    if (a.e2e_us > 0.0) out.push_back(a);
  return out;
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t request,
           std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.id = tracer_->next_id();
  rec_.parent = parent;
  rec_.request = request;
  rec_.thread = thread_tag();
  open_ = true;
  rec_.start_ns = tracer_->now_ns();
}

Span::Span(const Span& parent, const char* name)
    : Span(parent.tracer_, name, parent.rec_.request, parent.rec_.id) {}

void Span::end() {
  if (!open_) return;
  open_ = false;
  rec_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(rec_));
}

}  // namespace plannerbench
