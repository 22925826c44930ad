// Chrome trace-event JSON writer (the format Perfetto and chrome://tracing load).
//
// Events are kept in memory and written once when the benchmark ends, so
// recording never does I/O inside a measured run. Timestamps are microseconds;
// each simulated world and the host get their own trace process, so virtual-time
// and host-time tracks never share an axis.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

class TraceWriter {
 public:
  // Registers a named trace process and returns its pid.
  int AddProcess(std::string_view name) {
    int pid = next_pid_++;
    Begin("M", "process_name", pid, 0, 0);
    body_ += ",\"args\":{\"name\":\"";
    body_ += name;
    body_ += "\"}}";
    return pid;
  }

  // A span with a known duration on track `tid` of process `pid`.
  void Complete(int pid, int tid, std::string_view name, double ts_us, double dur_us,
                std::string_view args_json = {}) {
    Begin("X", name, pid, tid, ts_us);
    Append(",\"dur\":%.3f", dur_us);
    Args(args_json);
  }

  // Nestable async span keyed by `id` (requests and connections, which overlap
  // on one process and would not nest as complete events).
  void AsyncBegin(int pid, std::string_view name, uint64_t id, double ts_us,
                  std::string_view args_json = {}) {
    Async("b", pid, name, id, ts_us, args_json);
  }
  void AsyncEnd(int pid, std::string_view name, uint64_t id, double ts_us) {
    Async("e", pid, name, id, ts_us, {});
  }

  // One sample of a counter track.
  void Counter(int pid, std::string_view name, double ts_us, double value) {
    Begin("C", name, pid, 0, ts_us);
    Append(",\"args\":{\"value\":%.17g}}", value);
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    bool ok = std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f) >= 0 &&
              std::fwrite(body_.data(), 1, body_.size(), f) == body_.size() &&
              std::fputs("\n]}\n", f) >= 0;
    return std::fclose(f) == 0 && ok;
  }

  uint64_t bytes() const { return body_.size(); }

 private:
  template <typename... A>
  void Append(const char* fmt, A... a) {
    char buf[128];
    int n = std::snprintf(buf, sizeof(buf), fmt, a...);
    body_.append(buf, static_cast<size_t>(n < 0 ? 0 : n));
  }

  void Begin(const char* ph, std::string_view name, int pid, int tid, double ts_us) {
    body_ += first_ ? "" : ",\n";
    first_ = false;
    body_ += "{\"ph\":\"";
    body_ += ph;
    body_ += "\",\"name\":\"";
    body_ += name;
    body_ += "\"";
    Append(",\"pid\":%d,\"tid\":%d,\"ts\":%.3f", pid, tid, ts_us);
  }

  void Args(std::string_view args_json) {
    if (!args_json.empty()) {
      body_ += ",\"args\":";
      body_ += args_json;
    }
    body_ += "}";
  }

  void Async(const char* ph, int pid, std::string_view name, uint64_t id, double ts_us,
             std::string_view args_json) {
    Begin(ph, name, pid, 0, ts_us);
    Append(",\"cat\":\"%s\",\"id\":\"0x%llx\"", "request",
           static_cast<unsigned long long>(id));
    Args(args_json);
  }

  std::string body_;
  bool first_ = true;
  int next_pid_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
