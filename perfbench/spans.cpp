#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "obs/json.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_thread{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local std::vector<std::int64_t> t_open;
thread_local std::uint32_t t_thread = 0;

double clock_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool closed(const SpanRecord& s) { return !std::isnan(s.end_s); }

}  // namespace

void SpanLog::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t SpanLog::open(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  // Only thread-nested spans join this thread's stack; an explicitly
  // parented span may be closed on another thread.
  const bool nested = parent == kThreadParent;
  if (nested) parent = t_open.empty() ? -1 : t_open.back();
  SpanRecord rec;
  rec.name = name;
  rec.request = request;
  rec.parent = parent;
  rec.thread = t_thread;
  rec.end_s = std::nan("");
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    id = static_cast<std::int64_t>(g_spans.size());
    rec.start_s = clock_s();
    g_spans.push_back(rec);
  }
  if (nested) t_open.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  const double end = clock_s();
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.at(static_cast<std::size_t>(id)).end_s = end;
  }
  const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
}

std::size_t SpanLog::size() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans.size();
}

std::vector<SpanRecord> SpanLog::snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::map<std::string, LayerTime> SpanLog::layer_times(std::size_t from) {
  const std::vector<SpanRecord> spans = snapshot();
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 && closed(spans[i])) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, LayerTime> out;
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (!closed(s)) continue;
    // Union of the children's intervals, clipped to this span.
    cover.clear();
    for (std::size_t c : children[i]) {
      const double a = std::max(s.start_s, spans[c].start_s);
      const double b = std::min(s.end_s, spans[c].end_s);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, run_a = 0.0, run_b = -1.0;
    for (const auto& [a, b] : cover) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    LayerTime& t = out[s.name];
    const double d = s.end_s - s.start_s;
    ++t.count;
    t.total_s += d;
    t.self_s += d - covered;
  }
  return out;
}

void SpanLog::write_json(const std::string& path) {
  const std::vector<SpanRecord> spans = snapshot();
  const double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  phonolid::obs::Json arr = phonolid::obs::Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    phonolid::obs::Json j = phonolid::obs::Json::object();
    j["id"] = i;
    j["name"] = s.name;
    j["parent"] = static_cast<std::int64_t>(s.parent);
    j["request"] = s.request;
    j["thread"] = static_cast<std::uint64_t>(s.thread);
    j["start_us"] = (s.start_s - t0) * 1e6;
    j["end_us"] = closed(s) ? (s.end_s - t0) * 1e6 : -1.0;
    arr.push_back(std::move(j));
  }
  std::ofstream out(path, std::ios::trunc);
  arr.dump(out);
  out << '\n';
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

Span::Span(const char* name, std::uint64_t request, std::int64_t parent) {
  if (SpanLog::enabled()) id_ = SpanLog::open(name, request, parent);
}

Span::~Span() { end(); }

void Span::end() {
  if (id_ >= 0) SpanLog::close(id_);
  id_ = -1;
}

}  // namespace perfbench
