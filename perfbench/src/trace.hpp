// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a product layer, named "<layer>.<function>"
// ("core.salvage", "atpg.make_defender_suite", ...), or the benchmark's own
// per-op root span "op". Spans nest per thread: the span open on the calling
// thread is the parent, and a span inherits its op id from the parent unless
// it opens a new op. Nothing is written until the run ends; then the spans
// become Chrome trace-event JSON (opens in Perfetto / chrome://tracing) and
// the per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span on the same thread.
  int op = -1;      ///< Op id shared by every span of one op; -1 = setup.
  unsigned tid = 0;
};

class Tracer {
 public:
  /// Tag the calling thread (Chrome trace "tid"); 0 is the main thread.
  static void set_thread(unsigned tid);

  /// Open a span on the calling thread; op < 0 inherits the parent's op.
  int open(const char* name, int op);
  void close(int index);

  /// Snapshot of every recorded span (call after all threads joined).
  std::vector<SpanRec> spans() const;

  /// Summed inclusive duration (ms) of every span with this exact name.
  double total_ms(const std::string& name) const;

  /// Per-layer self time (ms): span duration minus its direct children.
  /// The layer is the name up to the first '.'.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Share of the "op" spans' wall not covered by any direct child span.
  double unaccounted_ratio() const;

  /// Write Chrome trace-event JSON with `stamp` (a JSON object text) as
  /// metadata. Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& stamp) const;

 private:
  static std::int64_t now_ns();

  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op (the untraced path never
/// constructs one, the replay helpers take a Tracer*).
class Span {
 public:
  Span(Tracer* t, const char* name, int op = -1)
      : t_(t), index_(t != nullptr ? t->open(name, op) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int index_;
};

}  // namespace perfbench
