#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

thread_local int tl_current = -1;  // innermost open span on this thread
thread_local int tl_op = -1;
thread_local unsigned tl_tid = 0;

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// Per span: summed duration of its direct children.
std::vector<std::int64_t> child_ns(const std::vector<SpanRec>& all) {
  std::vector<std::int64_t> out(all.size(), 0);
  for (const SpanRec& s : all) {
    if (s.parent >= 0) out[s.parent] += s.end_ns - s.start_ns;
  }
  return out;
}

}  // namespace

void Tracer::set_thread(unsigned tid) { tl_tid = tid; }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, int op) {
  SpanRec rec;
  rec.name = name;
  rec.parent = tl_current;
  rec.op = op >= 0 ? op : tl_op;
  rec.tid = tl_tid;
  rec.start_ns = now_ns();
  int index = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(rec);
  }
  tl_current = index;
  tl_op = rec.op;
  return index;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  SpanRec& rec = spans_[static_cast<std::size_t>(index)];
  rec.end_ns = end;
  tl_current = rec.parent;
  tl_op = rec.parent >= 0 ? spans_[static_cast<std::size_t>(rec.parent)].op
                          : -1;
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

double Tracer::total_ms(const std::string& name) const {
  double ns = 0.0;
  for (const SpanRec& s : spans()) {
    if (name == s.name) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns / 1e6;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<SpanRec> all = spans();
  const std::vector<std::int64_t> children = child_ns(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double self =
        static_cast<double>(all[i].end_ns - all[i].start_ns - children[i]);
    out[layer_of(all[i].name)] += self / 1e6;
  }
  return out;
}

double Tracer::unaccounted_ratio() const {
  const std::vector<SpanRec> all = spans();
  const std::vector<std::int64_t> children = child_ns(all);
  double op_ns = 0.0;
  double uncovered_ns = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::string("op") != all[i].name) continue;
    const std::int64_t dur = all[i].end_ns - all[i].start_ns;
    op_ns += static_cast<double>(dur);
    uncovered_ns += static_cast<double>(dur - children[i]);
  }
  return op_ns > 0.0 ? uncovered_ns / op_ns : 0.0;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& stamp) const {
  const std::vector<SpanRec> all = spans();
  std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (const SpanRec& s : all) t0 = std::min(t0, s.start_ns);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << stamp
      << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << layer_of(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
