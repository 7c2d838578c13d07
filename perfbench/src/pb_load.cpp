// pb_load — loopback load client for bdrmapit_serve --listen.
//
//   pb_load --port P --text FILE --bulk FILE --reload-path SNAP
//           [--conns C] [--text-seconds T] [--open-rate R]
//           [--open-seconds T] [--bulk-seconds T] [--batch B]
//           [--reloads K] [--cpus a,b,...]
//
// Runs four phases against one live server and checks every reply:
//
//   1. text, closed loop: C connections each keep two batches of 64
//      pipelined requests outstanding, reading and checking one batch's
//      replies before sending the next, for T seconds (after 0.2 s of
//      the same, checked but not timed);
//   2. text, open loop: C connections send requests at a fixed total
//      rate R, latency timed from when each request was due, while a
//      control connection RELOADs a snapshot K times and times each
//      until NETSTATS `generation` advances;
//   3. BULK, closed loop: C connections each keep two frames of B
//      addresses outstanding;
//   4. a final NETSTATS, for the server's own request counts.
//
// It links nothing from the repository: requests and expected replies
// come from the files the benchmark writes (perfbench/run.py). Text
// file: records of u8 kind, u32 request length, request bytes, u32
// expected length, expected bytes (little-endian). Kinds: 0 the reply
// must equal the expected bytes; 1 the reply is one line whose last
// tab-separated field must equal them (COUNT); 2 the reply is one line
// that must start with them (a miss: ERR not-found). BULK file: u32
// count, then per address u8 family, u8[16] address, u32 router_as,
// u32 conn_as, u8 flags, u32 alias group (0xffffffff: not in the map).
//
// Prints one JSON object on stdout with the counts, interval rates,
// latency quantiles and reload times; mismatches go to stderr.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

// Batches (text) or frames (BULK) each closed-loop connection keeps
// outstanding.
constexpr std::size_t kInFlight = 2;
// Requests per text batch.
constexpr int kPipeline = 64;
// Rates are reported per interval: each timed phase is cut into this
// many equal slices.
constexpr int kIntervals = 4;
// Seconds of checked, untimed closed-loop text before the timed phases.
constexpr double kWarmup = 0.2;

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::mutex g_err_mu;
int g_err_lines = 0;

void report(const char* what, std::string_view detail) {
  const std::lock_guard<std::mutex> lock(g_err_mu);
  if (++g_err_lines > 20) return;
  std::fprintf(stderr, "pb_load: %s: %.*s\n", what,
               static_cast<int>(std::min<std::size_t>(detail.size(), 300)),
               detail.data());
}

std::uint32_t le32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;  // x86/arm64 hosts are little-endian
}

struct TextQuery {
  std::uint8_t kind = 0;
  std::string request;
  std::string expected;
};

struct BulkAddr {
  char rec[17];
  std::uint32_t router_as, conn_as, group;
  std::uint8_t flags;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<TextQuery> load_text(const std::string& path) {
  const std::string data = slurp(path);
  std::vector<TextQuery> out;
  std::size_t i = 0;
  while (i + 9 <= data.size()) {
    TextQuery q;
    q.kind = static_cast<std::uint8_t>(data[i]);
    const std::uint32_t rl = le32(&data[i + 1]);
    q.request = data.substr(i + 5, rl);
    i += 5 + rl;
    const std::uint32_t el = le32(&data[i]);
    q.expected = data.substr(i + 4, el);
    i += 4 + el;
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<BulkAddr> load_bulk(const std::string& path) {
  const std::string data = slurp(path);
  std::vector<BulkAddr> out;
  if (data.size() < 4) return out;
  const std::uint32_t n = le32(data.data());
  constexpr std::size_t kRec = 17 + 4 + 4 + 1 + 4;
  for (std::size_t k = 0; k < n && 4 + (k + 1) * kRec <= data.size(); ++k) {
    const char* p = data.data() + 4 + k * kRec;
    BulkAddr a;
    std::memcpy(a.rec, p, 17);
    a.router_as = le32(p + 17);
    a.conn_as = le32(p + 21);
    a.flags = static_cast<std::uint8_t>(p[25]);
    a.group = le32(p + 26);
    out.push_back(a);
  }
  return out;
}

// One blocking TCP connection with a receive buffer and poll timeouts.
class Conn {
 public:
  explicit Conn(int port) : port_(port) { open(); }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }

  void reopen() {
    if (fd_ >= 0) ::close(fd_);
    rx_.clear();
    off_ = 0;
    open();
  }

  bool send_all(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  // Makes at least n unread bytes available.
  bool need(std::size_t n) {
    while (rx_.size() - off_ < n)
      if (!fill()) return false;
    return true;
  }

  std::string_view peek(std::size_t n) const { return {rx_.data() + off_, n}; }
  void consume(std::size_t n) { off_ += n; }

  bool line(std::string_view* out) {
    std::size_t scanned = 0;
    for (;;) {
      const char* base = rx_.data() + off_;
      const std::size_t avail = rx_.size() - off_;
      if (const void* nl = std::memchr(base + scanned, '\n', avail - scanned)) {
        const std::size_t len = static_cast<std::size_t>(
            static_cast<const char*>(nl) - base);
        *out = std::string_view(base, len);
        off_ += len + 1;
        return true;
      }
      scanned = avail;
      if (!fill()) return false;
    }
  }

 private:
  void open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(port_));
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  bool fill() {
    if (off_ > 0 && off_ == rx_.size()) {
      rx_.clear();
      off_ = 0;
    } else if (off_ > (1u << 20)) {
      rx_.erase(0, off_);
      off_ = 0;
    }
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) return false;  // 5 s: the server is stuck
    char buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;
    rx_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string rx_;
  std::size_t off_ = 0;
};

// Reads and checks the reply to one text query.
bool check_reply(Conn& c, const TextQuery& q) {
  if (q.kind == 0) {
    if (!c.need(q.expected.size())) {
      report("text reply missing", q.request);
      return false;
    }
    const std::string_view got = c.peek(q.expected.size());
    c.consume(q.expected.size());
    if (got != q.expected) {
      report("text reply differs", q.request);
      return false;
    }
    return true;
  }
  std::string_view ln;
  if (!c.line(&ln)) {
    report("text reply missing", q.request);
    return false;
  }
  bool good;
  if (q.kind == 1) {
    const std::size_t tab = ln.rfind('\t');
    good = tab != std::string_view::npos && ln.substr(tab + 1) == q.expected;
  } else {
    good = ln.substr(0, q.expected.size()) == q.expected;
  }
  if (!good) report("text reply differs", q.request);
  return good;
}

struct NetStats {
  std::map<std::string, std::uint64_t> rows;
  bool ok = false;
};

NetStats netstats(Conn& c, std::uint64_t* lines_sent) {
  NetStats st;
  ++*lines_sent;
  if (!c.send_all("NETSTATS\n")) return st;
  std::string_view ln;
  while (c.line(&ln)) {
    const std::size_t tab = ln.find('\t');
    if (tab == std::string_view::npos) return st;
    const std::string key(ln.substr(0, tab));
    const std::uint64_t v = std::strtoull(std::string(ln.substr(tab + 1)).c_str(),
                                          nullptr, 10);
    if (key == "END") {
      st.ok = true;
      return st;
    }
    st.rows[key] = v;
  }
  return st;
}

struct Args {
  int port = 0;
  std::string text, bulk, reload_path;
  int conns = 2, batch = 4096, reloads = 6;
  double text_seconds = 2, open_rate = 20000, open_seconds = 2, bulk_seconds = 2;
  std::string cpus;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

std::string join(const std::vector<double>& v) {
  std::string s = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--port") a.port = std::atoi(v.c_str());
    else if (k == "--text") a.text = v;
    else if (k == "--bulk") a.bulk = v;
    else if (k == "--reload-path") a.reload_path = v;
    else if (k == "--conns") a.conns = std::atoi(v.c_str());
    else if (k == "--batch") a.batch = std::atoi(v.c_str());
    else if (k == "--reloads") a.reloads = std::atoi(v.c_str());
    else if (k == "--text-seconds") a.text_seconds = std::atof(v.c_str());
    else if (k == "--open-rate") a.open_rate = std::atof(v.c_str());
    else if (k == "--open-seconds") a.open_seconds = std::atof(v.c_str());
    else if (k == "--bulk-seconds") a.bulk_seconds = std::atof(v.c_str());
    else if (k == "--cpus") a.cpus = v;
    else {
      std::fprintf(stderr, "pb_load: unknown option %s\n", k.c_str());
      return 1;
    }
  }
  if (!a.cpus.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::stringstream ss(a.cpus);
    for (std::string c; std::getline(ss, c, ',');) CPU_SET(std::atoi(c.c_str()), &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  const std::vector<TextQuery> text = load_text(a.text);
  const std::vector<BulkAddr> bulk = load_bulk(a.bulk);
  if (a.port <= 0 || text.empty() || bulk.empty() || a.conns < 1) {
    std::fprintf(stderr, "pb_load: need --port, a non-empty --text and --bulk\n");
    return 1;
  }

  Conn control(a.port);
  if (!control.ok()) {
    std::fprintf(stderr, "pb_load: cannot connect to port %d\n", a.port);
    return 1;
  }
  std::uint64_t control_lines = 0;
  const NetStats before = netstats(control, &control_lines);

  // ---- phase 1: text, closed loop -------------------------------------
  struct TextTally {
    std::uint64_t lines = 0, ok = 0, bad = 0;
    std::vector<std::uint64_t> per_interval;
  };
  const int n = a.conns;
  std::vector<TextTally> tt(static_cast<std::size_t>(n));
  // Keeps kInFlight batches of kPipeline requests outstanding, so the server
  // always has the next batch queued while the client checks the last.
  auto closed_text = [&](TextTally& t, std::size_t start, Clock::time_point t0,
                         double seconds, bool tally) {
    Conn c(a.port);
    std::size_t next = start;
    std::string batch;
    std::deque<std::size_t> inflight;  // first query index of each batch
    const double width = seconds / kIntervals;
    bool stream_ok = c.ok();
    for (;;) {
      const bool more = secs(Clock::now() - t0) < seconds;
      while (more && stream_ok && inflight.size() < kInFlight) {
        batch.clear();
        inflight.push_back(next);
        for (int k = 0; k < kPipeline; ++k) {
          batch += text[next].request;
          next = (next + 1) % text.size();
        }
        t.lines += std::uint64_t{kPipeline};
        stream_ok = c.send_all(batch);
      }
      if (inflight.empty()) break;
      std::uint64_t good = 0;
      for (int k = 0; k < kPipeline; ++k) {
        const std::size_t j = (inflight.front() + static_cast<std::size_t>(k)) % text.size();
        if (stream_ok && check_reply(c, text[j])) {
          ++good;
        } else {
          stream_ok = false;  // the reply stream is out of step from here
        }
      }
      inflight.pop_front();
      t.ok += good;
      t.bad += std::uint64_t{kPipeline} - good;
      if (tally) {
        const auto slot = static_cast<std::size_t>(secs(Clock::now() - t0) / width);
        if (slot < t.per_interval.size()) t.per_interval[slot] += good;
      }
      if (!stream_ok) {
        // Every batch still outstanding is lost with the connection.
        t.bad += inflight.size() * std::uint64_t{kPipeline};
        inflight.clear();
        c.reopen();
        stream_ok = c.ok();
      }
    }
  };
  {
    std::vector<TextTally> warm(static_cast<std::size_t>(n));
    std::vector<std::thread> th;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
      th.emplace_back(closed_text, std::ref(warm[i]), text.size() * i / n, t0,
                      kWarmup, false);
    for (auto& t : th) t.join();
    for (int i = 0; i < n; ++i) {
      tt[i].lines += warm[i].lines;
      tt[i].ok += warm[i].ok;
      tt[i].bad += warm[i].bad;
    }
  }
  std::vector<double> text_rates;
  {
    std::vector<std::thread> th;
    std::vector<TextTally> run(static_cast<std::size_t>(n));
    for (auto& t : run) t.per_interval.assign(std::size_t{kIntervals}, 0);
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
      th.emplace_back(closed_text, std::ref(run[i]), text.size() * i / n, t0,
                      a.text_seconds, true);
    for (auto& t : th) t.join();
    const double width = a.text_seconds / kIntervals;
    for (int k = 0; k < kIntervals; ++k) {
      std::uint64_t sum = 0;
      for (auto& t : run) sum += t.per_interval[k];
      text_rates.push_back(static_cast<double>(sum) / width);
    }
    for (int i = 0; i < n; ++i) {
      tt[i].lines += run[i].lines;
      tt[i].ok += run[i].ok;
      tt[i].bad += run[i].bad;
    }
  }

  // Control connection: RELOADs at even spacing across [t0, t0 + seconds),
  // each timed until NETSTATS shows the generation one higher.
  std::vector<double> reload_s;
  std::uint64_t reload_bad = 0, reload_ok = 0;
  std::uint64_t generation = before.rows.count("generation")
                                 ? before.rows.at("generation")
                                 : 0;
  auto run_reloads = [&](Clock::time_point t0, double seconds) {
    for (int r = 0; r < a.reloads; ++r) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    seconds * (r + 0.5) / a.reloads));
      std::this_thread::sleep_until(due);
      const std::string req = "RELOAD " + a.reload_path + "\n";
      const auto sent = Clock::now();
      ++control_lines;
      std::string_view ln;
      if (!control.send_all(req) || !control.line(&ln) ||
          ln != "OK\treload\t" + a.reload_path) {
        report("RELOAD refused", ln);
        ++reload_bad;
        continue;
      }
      bool advanced = false;
      while (secs(Clock::now() - sent) < 10) {
        const NetStats st = netstats(control, &control_lines);
        if (!st.ok) break;
        if (st.rows.count("reload_failed") && st.rows.at("reload_failed") != 0) {
          report("RELOAD failed", "reload_failed > 0");
          break;
        }
        const std::uint64_t g = st.rows.count("generation") ? st.rows.at("generation") : 0;
        if (g > generation) {
          advanced = g == generation + 1;
          if (!advanced) report("RELOAD skipped a generation", "");
          generation = g;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (advanced) {
        reload_s.push_back(secs(Clock::now() - sent));
        ++reload_ok;
      } else {
        ++reload_bad;
      }
    }
  };

  // ---- phase 2: text, open loop, with reloads beside it ---------------
  struct OpenTally {
    std::uint64_t lines = 0, bad = 0;
    std::vector<double> latency_us, lateness_us;
  };
  std::vector<OpenTally> ot(static_cast<std::size_t>(n));
  {
    const double per_conn = a.open_rate / n;
    const auto count = static_cast<std::size_t>(per_conn * a.open_seconds);
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> th;
    for (int i = 0; i < n; ++i) {
      th.emplace_back([&, i] {
        OpenTally& t = ot[static_cast<std::size_t>(i)];
        Conn c(a.port);
        t.latency_us.reserve(count);
        // Interleave the connections' schedules so the total is evenly
        // spaced, and start each on its own stretch of the mix.
        const auto gap = std::chrono::duration<double>(1.0 / per_conn);
        const auto offset = gap * (static_cast<double>(i) / n);
        std::size_t next = text.size() * static_cast<std::size_t>(i) / n + 7919;
        for (std::size_t k = 0; k < count; ++k) {
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    offset + gap * static_cast<double>(k));
          auto now = Clock::now();
          while (now < due) {
            if (due - now > std::chrono::microseconds(200))
              std::this_thread::sleep_for(due - now - std::chrono::microseconds(100));
            now = Clock::now();
          }
          const TextQuery& q = text[next % text.size()];
          ++next;
          ++t.lines;
          const auto sent = Clock::now();
          const bool good = c.ok() && c.send_all(q.request) && check_reply(c, q);
          const auto done = Clock::now();
          if (!good) {
            ++t.bad;
            c.reopen();
            continue;
          }
          t.latency_us.push_back(1e6 * secs(done - due));
          t.lateness_us.push_back(1e6 * secs(sent - due));
        }
      });
    }
    run_reloads(t0, a.open_seconds);
    for (auto& t : th) t.join();
  }
  std::vector<double> lat, late;
  std::uint64_t open_lines = 0, open_bad = 0;
  for (auto& t : ot) {
    lat.insert(lat.end(), t.latency_us.begin(), t.latency_us.end());
    late.insert(late.end(), t.lateness_us.begin(), t.lateness_us.end());
    open_lines += t.lines;
    open_bad += t.bad;
  }

  // ---- phase 3: BULK, closed loop ---------------------------------------
  struct BulkTally {
    std::uint64_t frames = 0, addrs = 0, ok = 0, bad = 0;
    std::vector<std::uint64_t> per_interval;
    std::vector<std::uint32_t> group_rid;  // alias group -> router_id seen
    std::map<std::uint32_t, std::uint32_t> rid_group;
  };
  std::uint32_t groups = 0;
  for (const auto& b : bulk)
    if (b.group != 0xffffffffu) groups = std::max(groups, b.group + 1);
  std::vector<BulkTally> bt(static_cast<std::size_t>(n));
  {
    const auto t0 = Clock::now();
    const double width = a.bulk_seconds / kIntervals;
    std::vector<std::thread> th;
    for (int i = 0; i < n; ++i) {
      th.emplace_back([&, i] {
        BulkTally& t = bt[static_cast<std::size_t>(i)];
        t.per_interval.assign(std::size_t{kIntervals}, 0);
        t.group_rid.assign(groups, 0xffffffffu);
        Conn c(a.port);
        std::size_t next = bulk.size() * static_cast<std::size_t>(i) / n;
        const auto cnt = static_cast<std::uint32_t>(a.batch);
        const std::size_t want = 8 + 16 * static_cast<std::size_t>(cnt);
        std::string frame;
        std::deque<std::size_t> inflight;  // first address index of each frame
        bool stream_ok = c.ok();
        for (;;) {
          const bool more = secs(Clock::now() - t0) < a.bulk_seconds;
          while (more && stream_ok && inflight.size() < kInFlight) {
            frame.assign("\xBD\x01\x01\x00", 4);
            frame.append(reinterpret_cast<const char*>(&cnt), 4);
            inflight.push_back(next);
            for (std::uint32_t k = 0; k < cnt; ++k) {
              frame.append(bulk[next].rec, 17);
              next = (next + 1) % bulk.size();
            }
            ++t.frames;
            t.addrs += cnt;
            stream_ok = c.send_all(frame);
          }
          if (inflight.empty()) break;
          // Header: magic, response opcode, version, reserved, count.
          std::string_view body;
          if (stream_ok && c.need(want)) {
            const std::string_view hdr = c.peek(8);
            stream_ok = static_cast<std::uint8_t>(hdr[0]) == 0xBD &&
                        static_cast<std::uint8_t>(hdr[1]) == 0x81 &&
                        le32(hdr.data() + 4) == cnt;
            if (stream_ok) body = c.peek(want).substr(8);
          } else {
            stream_ok = false;
          }
          std::uint64_t good = 0;
          for (std::uint32_t k = 0; stream_ok && k < cnt; ++k) {
            const std::size_t at = (inflight.front() + k) % bulk.size();
            const BulkAddr& e = bulk[at];
            const char* r = body.data() + 16 * static_cast<std::size_t>(k);
            bool rec_ok;
            if (e.group == 0xffffffffu) {
              static const char kZero[16] = {};
              rec_ok = std::memcmp(r, kZero, 16) == 0;
            } else {
              const std::uint32_t rid = le32(r + 8);
              rec_ok = le32(r) == e.router_as && le32(r + 4) == e.conn_as &&
                       static_cast<std::uint8_t>(r[12]) == e.flags && r[13] == 0 &&
                       r[14] == 0 && r[15] == 0;
              // One router_id per alias group, and on first sight of a
              // group, a router_id no other group has.
              std::uint32_t& g2r = t.group_rid[e.group];
              if (g2r == 0xffffffffu) {
                g2r = rid;
                rec_ok = t.rid_group.emplace(rid, e.group).second && rec_ok;
              } else {
                rec_ok = rec_ok && g2r == rid;
              }
            }
            if (rec_ok) {
              ++good;
            } else {
              char msg[96];
              std::snprintf(msg, sizeof msg, "address %zu, router_as %u", at, le32(r));
              report("BULK record differs", msg);
            }
          }
          inflight.pop_front();
          if (stream_ok) {
            c.consume(want);
          } else {
            report("BULK frame missing or malformed", "");
          }
          t.ok += good;
          t.bad += cnt - good;
          const auto slot = static_cast<std::size_t>(secs(Clock::now() - t0) / width);
          if (slot < t.per_interval.size()) t.per_interval[slot] += good;
          if (!stream_ok) {
            t.bad += inflight.size() * cnt;
            inflight.clear();
            c.reopen();
            stream_ok = c.ok();
          }
        }
      });
    }
    for (auto& t : th) t.join();
  }
  std::vector<double> bulk_rates;
  {
    const double width = a.bulk_seconds / kIntervals;
    for (int k = 0; k < kIntervals; ++k) {
      std::uint64_t sum = 0;
      for (auto& t : bt) sum += t.per_interval[k];
      bulk_rates.push_back(static_cast<double>(sum) / width);
    }
  }
  // Router ids must partition addresses exactly as the alias groups do,
  // across every connection.
  std::uint64_t partition_bad = 0;
  {
    std::vector<std::uint32_t> g2r(groups, 0xffffffffu);
    std::map<std::uint32_t, std::uint32_t> r2g;
    for (auto& t : bt) {
      for (std::uint32_t g = 0; g < groups; ++g) {
        const std::uint32_t rid = t.group_rid[g];
        if (rid == 0xffffffffu) continue;
        if (g2r[g] == 0xffffffffu) g2r[g] = rid;
        auto [it, fresh] = r2g.emplace(rid, g);
        if (g2r[g] != rid || it->second != g) ++partition_bad;
      }
    }
    if (partition_bad) report("router_id partition differs from alias sets", "");
  }

  // ---- phase 4: the server's own counts -------------------------------
  const NetStats after = netstats(control, &control_lines);

  std::uint64_t lines = control_lines + open_lines, text_bad = 0, bulk_frames = 0,
                bulk_addrs = 0, bulk_ok = 0, bulk_bad = 0;
  std::uint64_t text_ok = 0;
  for (auto& t : tt) {
    lines += t.lines;
    text_ok += t.ok;
    text_bad += t.bad;
  }
  for (auto& t : bt) {
    bulk_frames += t.frames;
    bulk_addrs += t.addrs;
    bulk_ok += t.ok;
    bulk_bad += t.bad;
  }
  auto stat = [](const NetStats& s, const char* k) -> long long {
    return s.rows.count(k) ? static_cast<long long>(s.rows.at(k)) : -1;
  };
  std::printf(
      "{\"text\": {\"ok\": %llu, \"bad\": %llu, \"rates\": %s},"
      " \"open\": {\"n\": %zu, \"bad\": %llu, \"p50_us\": %.6g,"
      " \"lateness_p50_us\": %.6g},"
      " \"bulk\": {\"frames\": %llu, \"addrs\": %llu, \"ok\": %llu, \"bad\": %llu,"
      " \"partition_bad\": %llu, \"rates\": %s},"
      " \"reload\": {\"ok\": %llu, \"bad\": %llu, \"seconds\": %s},"
      " \"sent\": {\"lines\": %llu, \"bulk_addrs\": %llu},"
      " \"netstats_ok\": %s,"
      " \"before\": {\"requests\": %lld, \"bulk_addrs\": %lld, \"bytes_out\": %lld,"
      " \"generation\": %lld},"
      " \"after\": {\"requests\": %lld, \"bulk_addrs\": %lld, \"bytes_out\": %lld,"
      " \"generation\": %lld, \"reloads\": %lld, \"reload_failed\": %lld}}\n",
      static_cast<unsigned long long>(text_ok), static_cast<unsigned long long>(text_bad),
      join(text_rates).c_str(), lat.size(), static_cast<unsigned long long>(open_bad),
      quantile(lat, 0.5), quantile(late, 0.5),
      static_cast<unsigned long long>(bulk_frames),
      static_cast<unsigned long long>(bulk_addrs),
      static_cast<unsigned long long>(bulk_ok), static_cast<unsigned long long>(bulk_bad),
      static_cast<unsigned long long>(partition_bad), join(bulk_rates).c_str(),
      static_cast<unsigned long long>(reload_ok),
      static_cast<unsigned long long>(reload_bad), join(reload_s).c_str(),
      static_cast<unsigned long long>(lines), static_cast<unsigned long long>(bulk_addrs),
      before.ok && after.ok ? "true" : "false", stat(before, "requests"),
      stat(before, "bulk_addrs"), stat(before, "bytes_out"), stat(before, "generation"),
      stat(after, "requests"), stat(after, "bulk_addrs"), stat(after, "bytes_out"),
      stat(after, "generation"), stat(after, "reloads"), stat(after, "reload_failed"));
  return 0;
}
