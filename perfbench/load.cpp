// Open-loop HTTP load generator for the served workloads.
//
// The schedule (one line per submit: due time in microseconds from the
// start, whether the accepted id is tracked, and the JSON body) is made
// by run.py from the seed; this program only executes it. Workers take
// the earliest due request — a submit from the schedule or a status poll
// of a tracked id — wait until it is due, and send it at once when they
// are already late. Nothing ever backs off: a 429 is recorded and the
// schedule moves on. Each submit records its send and response times, so
// latency is taken from when the request was due and lateness from when
// it was sent. Threads (the calling thread included) and connections
// never exceed --threads: every request is one blocking connection.
//
// A tracked id is polled with GET /task/<id> every --poll-ms after its
// 200 until it reaches a terminal state. After the schedule and the
// polls finish, GET /stats is polled until nothing is queued or matched.
// With --trace 1 the generator then fetches GET /trace/<trace_id> of every
// fourth accepted submit, GET /metrics and GET /debug/storage, and writes
// its own request spans next to --out.
#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <map>
#include <queue>
#include <thread>

#include "common.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "obs/trace_store.hpp"

namespace perfbench {
namespace {

using mfcp::net::ClientResponse;
using mfcp::net::JsonValue;

struct Submit {
  std::int64_t due_us = 0;
  bool tracked = false;
  std::string body;
  // Filled in by the worker that sends it.
  std::int64_t send_us = 0;
  std::int64_t done_us = 0;
  int status = 0;  // -1 = transport error
  std::uint64_t id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span = 0;
};

struct Tracked {
  std::size_t submit = 0;  // index into the schedule
  std::int64_t placed_us = -1;  // response time of the poll that saw it
  std::string final_state;
  std::vector<std::int64_t> poll_late_us;
};

struct Poll {
  std::int64_t due_us = 0;
  std::size_t tracked = 0;
  bool operator>(const Poll& o) const { return due_us > o.due_us; }
};

std::optional<std::map<std::string, JsonValue>> fields_of(
    const ClientResponse& r) {
  if (!r.ok) {
    return std::nullopt;
  }
  return mfcp::net::parse_json_object(r.body);
}

double number_field(const std::map<std::string, JsonValue>& f,
                    const std::string& key) {
  const auto it = f.find(key);
  return it != f.end() && it->second.kind == JsonValue::Kind::kNumber
             ? it->second.num
             : 0.0;
}

std::string string_field(const std::map<std::string, JsonValue>& f,
                         const std::string& key) {
  const auto it = f.find(key);
  return it != f.end() && it->second.kind == JsonValue::Kind::kString
             ? it->second.str
             : std::string();
}

/// How long the drain may take before the run gives up on it.
constexpr std::int64_t kDrainTimeoutUs = 20'000'000;

bool terminal(const std::string& state) {
  return state == "dispatched" || state == "expired" || state == "rejected";
}

class Generator {
 public:
  Generator(std::vector<Submit> schedule, std::uint16_t port, int poll_ms,
            SpanLog& spans)
      : schedule_(std::move(schedule)), port_(port),
        poll_us_(static_cast<std::int64_t>(poll_ms) * 1000), spans_(spans) {}

  void run(std::size_t threads) {
    start_ = Clock::now();
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < threads; ++t) {
      helpers.emplace_back([this] { work(); });
    }
    work();
    for (std::thread& t : helpers) {
      t.join();
    }
  }

  [[nodiscard]] std::int64_t now_us() const {
    return to_us(Clock::now() - start_);
  }

  ClientResponse call(const std::string& method, const std::string& path,
                      const std::string& body, const char* span_name,
                      std::uint64_t trace_id, std::uint64_t parent,
                      std::uint64_t* span_id = nullptr) {
    const std::int64_t t0 = now_us();
    ClientResponse r = mfcp::net::http_call(kHost, port_, method, path, body,
                                            kTimeoutMs);
    const std::uint64_t id =
        spans_.add(span_name, trace_id, parent, t0, now_us());
    if (span_id != nullptr) {
      *span_id = id;
    }
    return r;
  }

  std::vector<Submit> schedule_;
  std::vector<Tracked> tracked_;

 private:
  static constexpr const char* kHost = "127.0.0.1";
  static constexpr int kTimeoutMs = 10000;

  void work() {
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex_);
      std::int64_t due = 0;
      bool is_submit = false;
      for (;;) {
        const bool submits_left = next_submit_ < schedule_.size();
        if (!submits_left && polls_.empty()) {
          if (in_flight_ == 0) {
            ready_.notify_all();
            return;
          }
          ready_.wait(lock);
          continue;
        }
        is_submit = submits_left &&
                    (polls_.empty() ||
                     schedule_[next_submit_].due_us <= polls_.top().due_us);
        due = is_submit ? schedule_[next_submit_].due_us : polls_.top().due_us;
        const std::int64_t wait = due - now_us();
        if (wait <= 0) {
          break;
        }
        ready_.wait_for(lock, std::chrono::microseconds(wait));
      }
      ++in_flight_;
      if (is_submit) {
        const std::size_t k = next_submit_++;
        lock.unlock();
        send_submit(k);
      } else {
        const Poll p = polls_.top();
        polls_.pop();
        lock.unlock();
        send_poll(p);
      }
      lock.lock();
      --in_flight_;
      ready_.notify_all();
    }
  }

  void send_submit(std::size_t k) {
    Submit& s = schedule_[k];
    s.send_us = now_us();
    const ClientResponse r =
        call("POST", "/submit", s.body, "submit", 0, 0, &s.span);
    s.done_us = now_us();
    s.status = r.ok ? r.status : -1;
    if (s.status != 200) {
      return;
    }
    if (const auto f = fields_of(r)) {
      s.id = static_cast<std::uint64_t>(number_field(*f, "id"));
      s.trace_id =
          mfcp::obs::parse_trace_id(string_field(*f, "trace_id")).value_or(0);
      spans_.set_trace(s.span, s.trace_id);
    }
    if (s.tracked && s.id != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      Tracked t;
      t.submit = k;
      tracked_.push_back(t);
      polls_.push(Poll{s.done_us + poll_us_, tracked_.size() - 1});
    }
  }

  void send_poll(const Poll& p) {
    std::size_t k = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      k = tracked_[p.tracked].submit;
    }
    const Submit& s = schedule_[k];
    const std::int64_t sent = now_us();
    const ClientResponse r = call("GET", "/task/" + std::to_string(s.id), "",
                                  "poll", s.trace_id, s.span);
    const std::int64_t done = now_us();
    std::string state = "unknown";
    if (r.ok && r.status == 200) {
      if (const auto f = fields_of(r)) {
        state = string_field(*f, "state");
      }
    } else if (r.ok) {
      state = "http_" + std::to_string(r.status);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    Tracked& t = tracked_[p.tracked];
    t.poll_late_us.push_back(sent - p.due_us);
    if (state == "dispatched" && t.placed_us < 0) {
      t.placed_us = done;
    }
    if (terminal(state) || state.rfind("http_", 0) == 0 ||
        state == "unknown") {
      t.final_state = state;
      return;
    }
    polls_.push(Poll{done + poll_us_, p.tracked});
  }

  std::uint16_t port_;
  std::int64_t poll_us_;
  SpanLog& spans_;
  Clock::time_point start_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::size_t next_submit_ = 0;
  std::priority_queue<Poll, std::vector<Poll>, std::greater<>> polls_;
  std::size_t in_flight_ = 0;
};

std::vector<Submit> read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read schedule " + path);
  }
  std::vector<Submit> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::size_t a = line.find(' ');
    const std::size_t b = line.find(' ', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::runtime_error("malformed schedule line: " + line);
    }
    Submit s;
    s.due_us = std::stoll(line.substr(0, a));
    s.tracked = line.substr(a + 1, b - a - 1) == "1";
    s.body = line.substr(b + 1);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

int run_load(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.u64("--port"));
  const auto threads = static_cast<std::size_t>(args.u64("--threads"));
  const int poll_ms = static_cast<int>(args.u64("--poll-ms"));
  const bool traced = args.u64("--trace") != 0;
  const std::string out_path = args.str("--out");
  if (port == 0 || threads < 1) {
    throw std::runtime_error("load needs --port and --threads >= 1");
  }
  SpanLog spans(traced);
  Generator gen(read_schedule(args.str("--schedule")), port, poll_ms,
                spans);
  gen.run(threads);

  // Drain: every acceptance must reach a terminal state.
  std::string stats_body;
  bool drained = false;
  const std::int64_t drain_start = gen.now_us();
  while (gen.now_us() - drain_start < kDrainTimeoutUs) {
    const ClientResponse r = gen.call("GET", "/stats", "", "stats", 0, 0);
    if (r.ok && r.status == 200) {
      stats_body = r.body;
      if (const auto f = fields_of(r)) {
        if (number_field(*f, "tasks_queued") == 0 &&
            number_field(*f, "tasks_matched") == 0 &&
            number_field(*f, "inbox_depth") == 0 &&
            number_field(*f, "queue_depth") == 0) {
          drained = true;
          break;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  Json j;
  j.open('{');
  j.key("drained").boolean(drained);
  j.key("stats").raw(stats_body.empty() ? "null" : stats_body);
  // Columns keep the file compact: one array per submit field.
  std::vector<double> due, send, done, status;
  for (const Submit& s : gen.schedule_) {
    due.push_back(static_cast<double>(s.due_us));
    send.push_back(static_cast<double>(s.send_us));
    done.push_back(static_cast<double>(s.done_us));
    status.push_back(s.status);
  }
  j.key("submits").open('{');
  j.nums("due_us", due);
  j.nums("send_us", send);
  j.nums("done_us", done);
  j.nums("status", status);
  j.close('}');
  j.key("tracked").open('[');
  for (const Tracked& t : gen.tracked_) {
    const Submit& s = gen.schedule_[t.submit];
    j.open('{');
    j.key("ack_us").integer(s.done_us);
    j.key("placed_us").integer(t.placed_us);
    j.key("final").string(t.final_state);
    j.nums("poll_late_us", t.poll_late_us);
    j.close('}');
  }
  j.close(']');

  if (traced) {
    // Span chains of every kTraceEvery-th accepted submit.
    constexpr std::size_t kTraceEvery = 4;
    j.key("trace_every").integer(kTraceEvery);
    j.key("traces").open('[');
    for (std::size_t k = 0; k < gen.schedule_.size(); k += kTraceEvery) {
      const Submit& s = gen.schedule_[k];
      if (s.status != 200) {
        continue;
      }
      const ClientResponse r =
          gen.call("GET", "/trace/" + mfcp::obs::format_trace_id(s.trace_id),
                   "", "trace", s.trace_id, s.span);
      if (r.ok && r.status == 200) {
        j.raw(r.body);
      }
    }
    j.close(']');
    const ClientResponse metrics =
        gen.call("GET", "/metrics", "", "metrics", 0, 0);
    j.key("metrics_text").string(metrics.ok ? metrics.body : "");
    const ClientResponse storage =
        gen.call("GET", "/debug/storage", "", "debug_storage", 0, 0);
    j.key("debug_storage")
        .raw(storage.ok && storage.status == 200 ? storage.body : "null");
  }
  j.close('}');
  write_file(out_path, j.text());
  spans.write(out_path + ".spans.jsonl");
  return 0;
}

}  // namespace perfbench
