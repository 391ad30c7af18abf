#include "campaignd/server.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "campaign/exhaustive.hpp"
#include "campaignd/checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/jsonv.hpp"

namespace abftecc::campaignd {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool read_file(const std::string& path, std::string* content) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  content->clear();
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    content->append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

std::string_view Server::state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kInterrupted: return "interrupted";
  }
  return "?";
}

Server::~Server() {
  for (Connection& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opt_.socket_path.c_str());
  }
}

Server::Job* Server::find_job(std::string_view id) {
  for (Job& j : jobs_)
    if (j.id == id) return &j;
  return nullptr;
}

void Server::recover_spool(std::string* error) {
  const std::string jobs_dir = opt_.state_dir + "/jobs";
  DIR* d = ::opendir(jobs_dir.c_str());
  if (d == nullptr) return;  // fresh state dir
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("job-", 0) != 0) continue;
    Job job;
    job.id = name;
    job.dir = jobs_dir + "/" + name;
    std::string spec_text;
    if (!read_file(job.dir + "/spec.json", &spec_text)) continue;
    const auto spec_json = obs::json_parse(spec_text, error);
    if (!spec_json.has_value() ||
        !job_from_json(*spec_json, &job.spec, error))
      continue;  // unreadable spool entries are skipped, not fatal
    job.trials_total = job.spec.exhaustive
                           ? job.spec.exhaustive_options.words
                           : job.spec.options.trials;
    if (file_exists(job.dir + "/done.json") &&
        read_file(job.dir + "/aggregate.json", &job.aggregate)) {
      // Strip the trailing newline the output writer appends.
      while (!job.aggregate.empty() && job.aggregate.back() == '\n')
        job.aggregate.pop_back();
      job.state = JobState::kDone;
      job.trials_done = job.trials_total;
    } else {
      job.state = JobState::kInterrupted;
      job.error = "daemon stopped before the job finished; resume to rerun "
                  "from its checkpoint";
    }
    const unsigned num = static_cast<unsigned>(
        std::strtoul(name.c_str() + 4, nullptr, 10));
    next_job_ = std::max(next_job_, num + 1);
    jobs_.push_back(std::move(job));
  }
  ::closedir(d);
  std::sort(jobs_.begin(), jobs_.end(),
            [](const Job& a, const Job& b) { return a.id < b.id; });
}

bool Server::start(std::string* error) {
  if (!make_directories(opt_.state_dir + "/jobs", error)) return false;
  recover_spool(error);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr)
      *error = "socket path too long: " + opt_.socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr)
      *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(opt_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr)
      *error = "bind " + opt_.socket_path + ": " + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 16) != 0) {
    if (error != nullptr)
      *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }

  // Telemetry plane: pre-register the daemon's instruments so every
  // exposition and every ring carries the full schema from the first
  // scrape, and start the uptime/sampling clocks.
  t0_ns_ = now_ns();
  sampler_ = obs::TelemetrySampler(
      obs::TelemetryOptions{opt_.sample_capacity, 0.0});
  metrics_.counter("campaignd.requests");
  metrics_.counter("campaignd.jobs_submitted");
  metrics_.counter("campaignd.jobs_completed");
  metrics_.counter("campaignd.jobs_failed");
  metrics_.counter("campaignd.trials");
  metrics_.counter("campaignd.workers_spawned");
  metrics_.counter("campaignd.workers_died");
  metrics_.gauge("campaignd.uptime_seconds");
  metrics_.gauge("campaignd.jobs_queued");
  metrics_.gauge("campaignd.jobs_running");
  metrics_.gauge("campaignd.workers_alive");
  metrics_.gauge("campaignd.trials_per_sec");
  metrics_.histogram("campaignd.job_seconds",
                     obs::Histogram::exponential_bounds(0.25, 2.0, 16));
  return true;
}

double Server::uptime_s() const {
  return t0_ns_ == 0 ? 0.0 : static_cast<double>(now_ns() - t0_ns_) * 1e-9;
}

void Server::update_gauges() {
  metrics_.gauge("campaignd.uptime_seconds").set(uptime_s());
  metrics_.gauge("campaignd.jobs_queued")
      .set(static_cast<double>(queue_.size()));
  metrics_.gauge("campaignd.jobs_running").set(running_.empty() ? 0.0 : 1.0);
  double alive = 0.0, rate = 0.0;
  if (const Job* j = running_.empty() ? nullptr : find_job(running_)) {
    alive = static_cast<double>(j->live.workers.size());
    rate = j->live.ewma_rate;
  }
  metrics_.gauge("campaignd.workers_alive").set(alive);
  metrics_.gauge("campaignd.trials_per_sec").set(rate);
}

void Server::sample_metrics() {
  const std::uint64_t now = now_ns();
  const auto interval_ns =
      static_cast<std::uint64_t>(opt_.sample_interval_s * 1e9);
  if (last_sample_ns_ != 0 && now - last_sample_ns_ < interval_ns) return;
  last_sample_ns_ = now;
  update_gauges();
  sampler_.sample(metrics_, static_cast<double>(now - t0_ns_) * 1e-9);
}

int Server::run() {
  while (!stop_) {
    if (!queue_.empty()) {
      run_next_job();
    } else {
      service_once(200);
    }
  }
  return 0;
}

void Server::accept_new() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or error: nothing (more) to accept
    Connection c;
    c.fd = fd;
    conns_.push_back(std::move(c));
  }
}

void Server::service_once(int timeout_ms) {
  if (in_service_) return;
  in_service_ = true;
  sample_metrics();

  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const Connection& c : conns_) fds.push_back({c.fd, POLLIN, 0});

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) {
    in_service_ = false;
    return;
  }
  if ((fds[0].revents & POLLIN) != 0) accept_new();

  std::vector<int> closed;
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    auto it = std::find_if(conns_.begin(), conns_.end(), [&](const auto& c) {
      return c.fd == fds[i].fd;
    });
    if (it == conns_.end()) continue;
    char buf[1 << 14];
    const ssize_t n = ::read(it->fd, buf, sizeof(buf));
    if (n <= 0) {
      closed.push_back(it->fd);
      continue;
    }
    it->inbuf.append(buf, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = it->inbuf.find('\n')) != std::string::npos) {
      const std::string line = it->inbuf.substr(0, pos);
      it->inbuf.erase(0, pos + 1);
      if (!line.empty()) handle_line(*it, line);
    }
  }
  for (const int fd : closed) {
    ::close(fd);
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [&](const auto& c) { return c.fd == fd; }),
                 conns_.end());
  }
  in_service_ = false;
}

void Server::send_line(int fd, const std::string& line) {
  std::string msg = line;
  msg += '\n';
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n =
        ::send(fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client gone; its next read / our next poll cleans up
    }
    off += static_cast<std::size_t>(n);
  }
}

void Server::reply_error(Connection& conn, const std::string& msg) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("protocol", kProtocolVersion);
  w.field("ok", false);
  w.field("error", msg);
  w.end_object();
  send_line(conn.fd, w.take());
}

void Server::reply_results(int fd, const Job& job) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("protocol", kProtocolVersion);
  w.field("ok", true);
  w.field("id", job.id);
  w.field("name", job.spec.name);
  w.field("state", state_name(job.state));
  w.field("trials_done", job.trials_done);
  w.field("trials_total", job.trials_total);
  if (!job.error.empty()) w.field("error", job.error);
  w.key("aggregate");
  if (job.aggregate.empty()) {
    w.null();
  } else {
    w.raw(job.aggregate);
  }
  w.field("trials_path", job.dir + "/trials.jsonl");
  if (job.spec.options.lineage)
    w.field("lineage_path", job.dir + "/lineage.jsonl");
  w.end_object();
  send_line(fd, w.take());
}

void Server::notify_waiters(const Job& job) {
  for (Connection& c : conns_) {
    if (c.waiting_for != job.id) continue;
    c.waiting_for.clear();
    reply_results(c.fd, job);
  }
}

void Server::write_live(obs::JsonWriter& w, const Job& job) const {
  const Live& lv = job.live;
  w.field("id", job.id);
  w.field("name", job.spec.name);
  w.field("state", state_name(job.state));
  w.field("trials_done", job.trials_done);
  w.field("trials_total", job.trials_total);
  w.field("elapsed_s", lv.started_ns == 0
                           ? 0.0
                           : static_cast<double>(now_ns() - lv.started_ns) *
                                 1e-9);
  w.field("trials_per_sec", lv.ewma_rate);
  w.field("eta_s", lv.eta_s);
  w.key("outcomes").begin_object();
  if (lv.have_outcomes) {
    for (std::size_t i = 0; i < campaign::kAllOutcomes.size(); ++i)
      w.field(to_string(campaign::kAllOutcomes[i]), lv.outcomes[i]);
  }
  w.end_object();
  w.key("workers").begin_array();
  for (const WorkerBeat& b : lv.workers) {
    w.begin_object();
    w.field("pid", static_cast<std::int64_t>(b.pid));
    w.field("chunk", static_cast<std::int64_t>(b.chunk));
    w.end_object();
  }
  w.end_array();
  w.field("workers_spawned", lv.workers_spawned);
  w.field("workers_died", lv.workers_died);
  if (!job.error.empty()) w.field("error", job.error);
}

void Server::push_event(Job& job, bool final_event) {
  bool any = false;
  for (const Connection& c : conns_)
    if (c.subscribed_to == job.id) any = true;
  if (!any) return;
  const std::uint64_t now = now_ns();
  // Progress pushes are capped at ~5/s per job so a fast sweep cannot
  // firehose a slow subscriber; the final event always goes out.
  if (!final_event && now - job.live.last_push_ns < 200'000'000ULL) return;
  job.live.last_push_ns = now;

  obs::JsonWriter w;
  w.begin_object();
  w.field("protocol", kProtocolVersion);
  w.field("ok", true);
  w.field("event", final_event ? "done" : "progress");
  write_live(w, job);
  w.field("done", final_event);
  w.end_object();
  const std::string line = w.take();
  for (Connection& c : conns_) {
    if (c.subscribed_to != job.id) continue;
    send_line(c.fd, line);
    if (final_event) c.subscribed_to.clear();
  }
}

void Server::update_live_progress(Job& job, std::uint64_t done,
                                  std::uint64_t total) {
  Live& lv = job.live;
  const std::uint64_t now = now_ns();
  if (done > lv.last_done)
    metrics_.counter("campaignd.trials").add(done - lv.last_done);
  const double dt = static_cast<double>(now - lv.last_ns) * 1e-9;
  if (done > lv.last_done && dt > 0.0) {
    const double inst = static_cast<double>(done - lv.last_done) / dt;
    // EWMA over elapsed time (5 s constant), not over updates: chunked
    // progress arrives at an uneven cadence.
    const double alpha = 1.0 - std::exp(-dt / 5.0);
    lv.ewma_rate =
        lv.ewma_rate == 0.0 ? inst : lv.ewma_rate + alpha * (inst - lv.ewma_rate);
  }
  lv.last_ns = now;
  lv.last_done = done;
  job.trials_done = done;
  lv.eta_s = lv.ewma_rate > 0.0 && total >= done
                 ? static_cast<double>(total - done) / lv.ewma_rate
                 : -1.0;
  push_event(job, false);
}

std::string Server::exposition() {
  update_gauges();
  obs::OpenMetricsWriter om;
  om.snapshot(metrics_.snapshot());

  // Per-job families, one sample per job with a `job` label (plus
  // `outcome` for the outcome-mix family). Family names are disjoint
  // from the registry's `campaignd.*` instruments by the `_job_` infix.
  using Type = obs::OpenMetricsWriter::Type;
  auto job_labels = [](const Job& j) {
    return std::vector<obs::MetricLabel>{{"job", j.id}, {"name", j.spec.name}};
  };
  om.family("campaignd_job_trials_done", Type::kGauge);
  for (const Job& j : jobs_)
    om.sample(static_cast<double>(j.trials_done), job_labels(j));
  om.family("campaignd_job_trials_total", Type::kGauge);
  for (const Job& j : jobs_)
    om.sample(static_cast<double>(j.trials_total), job_labels(j));
  om.family("campaignd_job_state", Type::kGauge);
  for (const Job& j : jobs_) {
    auto labels = job_labels(j);
    labels.push_back({"state", std::string(state_name(j.state))});
    om.sample(1.0, labels);
  }
  om.family("campaignd_job_trials_per_sec", Type::kGauge);
  for (const Job& j : jobs_)
    om.sample(j.live.ewma_rate, job_labels(j));
  om.family("campaignd_job_eta_seconds", Type::kGauge);
  for (const Job& j : jobs_)
    om.sample(j.live.eta_s, job_labels(j));
  om.family("campaignd_job_workers_alive", Type::kGauge);
  for (const Job& j : jobs_)
    om.sample(static_cast<double>(j.live.workers.size()), job_labels(j));
  om.family("campaignd_job_workers_died", Type::kGauge);
  for (const Job& j : jobs_)
    om.sample(static_cast<double>(j.live.workers_died), job_labels(j));
  om.family("campaignd_job_outcome_trials", Type::kGauge);
  for (const Job& j : jobs_) {
    if (!j.live.have_outcomes) continue;
    for (std::size_t i = 0; i < campaign::kAllOutcomes.size(); ++i) {
      auto labels = job_labels(j);
      labels.push_back(
          {"outcome", std::string(to_string(campaign::kAllOutcomes[i]))});
      om.sample(static_cast<double>(j.live.outcomes[i]), labels);
    }
  }
  return om.take();
}

void Server::handle_line(Connection& conn, const std::string& line) {
  std::string perr;
  const auto v = obs::json_parse(line, &perr);
  if (!v.has_value()) {
    reply_error(conn, "malformed request: " + perr);
    return;
  }
  // Envelope version gate: a request that carries a protocol number we do
  // not speak gets a self-describing refusal instead of an op-level error
  // (or worse, a reply whose shape the peer cannot parse). Requests without
  // the field are served -- the response still carries our version, so the
  // client's own check closes the loop.
  if (const obs::JsonValue* p = v->find("protocol");
      p != nullptr && p->as_u64() != kProtocolVersion) {
    reply_error(conn, "protocol mismatch: daemon speaks protocol " +
                          std::to_string(kProtocolVersion) +
                          ", request carried protocol " +
                          std::to_string(p->as_u64()));
    return;
  }
  const std::string_view op = v->str("op");
  metrics_.counter("campaignd.requests").add(1);

  if (op == "ping") {
    std::uint64_t done = 0, failed = 0;
    for (const Job& j : jobs_) {
      done += j.state == JobState::kDone ? 1 : 0;
      failed += j.state == JobState::kFailed ? 1 : 0;
    }
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("op", "ping");
    w.field("schema", kSchemaVersion);
    w.field("version", kServerVersion);
    w.field("pid", static_cast<std::uint64_t>(::getpid()));
    w.field("uptime_s", uptime_s());
    w.field("jobs", static_cast<std::uint64_t>(jobs_.size()));
    w.field("queued", static_cast<std::uint64_t>(queue_.size()));
    w.field("running", static_cast<std::uint64_t>(running_.empty() ? 0 : 1));
    w.field("done", done);
    w.field("failed", failed);
    w.end_object();
    send_line(conn.fd, w.take());
    return;
  }

  if (op == "metrics") {
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("op", "metrics");
    w.field("exposition", exposition());
    w.key("series").raw(sampler_.to_json());
    w.end_object();
    send_line(conn.fd, w.take());
    return;
  }

  if (op == "subscribe") {
    Job* job = find_job(v->str("id"));
    if (job == nullptr) {
      reply_error(conn, "subscribe: unknown job id");
      return;
    }
    const bool terminal = job->state != JobState::kQueued &&
                          job->state != JobState::kRunning;
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("event", terminal ? "done" : "progress");
    write_live(w, *job);
    w.field("done", terminal);
    w.end_object();
    send_line(conn.fd, w.take());
    // Live jobs keep streaming: progress events until the final done
    // line detaches the subscription.
    if (!terminal) conn.subscribed_to = job->id;
    return;
  }

  if (op == "submit") {
    const obs::JsonValue* j = v->find("job");
    if (j == nullptr) {
      reply_error(conn, "submit: missing 'job'");
      return;
    }
    Job job;
    std::string err;
    if (!job_from_json(*j, &job.spec, &err)) {
      reply_error(conn, "submit: " + err);
      return;
    }
    if (job.spec.shards == 0) job.spec.shards = opt_.default_shards;
    char id[32];
    std::snprintf(id, sizeof(id), "job-%06u", next_job_++);
    job.id = id;
    job.dir = opt_.state_dir + "/jobs/" + job.id;
    job.trials_total = job.spec.exhaustive ? job.spec.exhaustive_options.words
                                           : job.spec.options.trials;
    std::string mkerr;
    if (!make_directories(job.dir, &mkerr) ||
        !atomic_write_file(job.dir + "/spec.json",
                           job_to_json(job.spec) + "\n", &mkerr)) {
      reply_error(conn, "submit: cannot spool job: " + mkerr);
      return;
    }
    queue_.push_back(job.id);
    jobs_.push_back(std::move(job));
    metrics_.counter("campaignd.jobs_submitted").add(1);
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("id", jobs_.back().id);
    w.field("state", "queued");
    w.field("queued", static_cast<std::uint64_t>(queue_.size()));
    w.end_object();
    send_line(conn.fd, w.take());
    return;
  }

  if (op == "resume") {
    Job* job = find_job(v->str("id"));
    if (job == nullptr) {
      reply_error(conn, "resume: unknown job id");
      return;
    }
    if (job->state == JobState::kRunning || job->state == JobState::kQueued) {
      reply_error(conn, "resume: job is already " +
                            std::string(state_name(job->state)));
      return;
    }
    if (job->state == JobState::kDone) {
      reply_results(conn.fd, *job);  // nothing to redo; hand back results
      return;
    }
    job->state = JobState::kQueued;
    job->error.clear();
    queue_.push_back(job->id);
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("id", job->id);
    w.field("state", "queued");
    w.end_object();
    send_line(conn.fd, w.take());
    return;
  }

  if (op == "status") {
    std::uint64_t done = 0, failed = 0;
    for (const Job& j : jobs_) {
      done += j.state == JobState::kDone ? 1 : 0;
      failed += j.state == JobState::kFailed ? 1 : 0;
    }
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("op", "status");
    w.field("pid", static_cast<std::uint64_t>(::getpid()));
    w.field("jobs", static_cast<std::uint64_t>(jobs_.size()));
    w.field("queued", static_cast<std::uint64_t>(queue_.size()));
    w.field("done", done);
    w.field("failed", failed);
    w.key("running");
    if (running_.empty()) {
      w.null();
    } else if (const Job* j = find_job(running_); j != nullptr) {
      w.begin_object();
      w.field("id", j->id);
      w.field("name", j->spec.name);
      w.field("trials_done", j->trials_done);
      w.field("trials_total", j->trials_total);
      w.end_object();
    } else {
      w.null();
    }
    w.end_object();
    send_line(conn.fd, w.take());
    return;
  }

  if (op == "jobs") {
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.key("jobs").begin_array();
    for (const Job& j : jobs_) {
      w.begin_object();
      w.field("id", j.id);
      w.field("name", j.spec.name);
      w.field("state", state_name(j.state));
      w.field("trials_done", j.trials_done);
      w.field("trials_total", j.trials_total);
      if (!j.error.empty()) w.field("error", j.error);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    send_line(conn.fd, w.take());
    return;
  }

  if (op == "results") {
    const Job* job = find_job(v->str("id"));
    if (job == nullptr) {
      reply_error(conn, "results: unknown job id");
      return;
    }
    reply_results(conn.fd, *job);
    return;
  }

  if (op == "wait") {
    Job* job = find_job(v->str("id"));
    if (job == nullptr) {
      reply_error(conn, "wait: unknown job id");
      return;
    }
    if (job->state == JobState::kQueued || job->state == JobState::kRunning) {
      conn.waiting_for = job->id;  // parked; answered at completion
      return;
    }
    reply_results(conn.fd, *job);
    return;
  }

  if (op == "shutdown") {
    obs::JsonWriter w;
    w.begin_object();
    w.field("protocol", kProtocolVersion);
    w.field("ok", true);
    w.field("stopping", true);
    w.end_object();
    send_line(conn.fd, w.take());
    stop_ = true;
    return;
  }

  reply_error(conn, "unknown op '" + std::string(op) + "'");
}

bool Server::write_job_outputs(Job& job, const std::string& trials,
                               const std::string& lineage,
                               const std::string& aggregate) {
  std::string werr;
  if (!atomic_write_file(job.dir + "/trials.jsonl", trials, &werr) ||
      !atomic_write_file(job.dir + "/aggregate.json", aggregate + "\n",
                         &werr)) {
    job.error = "cannot write job outputs: " + werr;
    return false;
  }
  if (job.spec.options.lineage &&
      !atomic_write_file(job.dir + "/lineage.jsonl", lineage, &werr)) {
    job.error = "cannot write lineage output: " + werr;
    return false;
  }
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", kSchemaVersion);
  w.field("id", job.id);
  w.field("state", "done");
  w.end_object();
  // The done marker is written LAST, and every file (marker included)
  // goes through atomic_write_file's tmp+fsync+rename, so its presence
  // certifies every output above it is complete and durable -- whether
  // the interruption was a SIGKILL, a crash, or power loss.
  if (!atomic_write_file(job.dir + "/done.json", w.take() + "\n", &werr)) {
    job.error = "cannot write done marker: " + werr;
    return false;
  }
  job.aggregate = aggregate;
  return true;
}

void Server::run_campaign_job(Job& job) {
  // The golden run happens on the supervisor before any worker forks, so
  // every worker inherits the one reference run instead of recomputing it.
  const campaign::GoldenRun golden = campaign::run_golden(job.spec.options);

  ShardOptions shard_opt;
  shard_opt.shards = job.spec.shards;
  shard_opt.checkpoint_dir = job.dir + "/checkpoint";
  shard_opt.fingerprint = job_fingerprint(job.spec);
  shard_opt.progress = [&](std::size_t done, std::size_t total) {
    update_live_progress(job, done, total);
  };
  shard_opt.stats = [&](const campaign::Accumulator& acc) {
    for (std::size_t i = 0; i < campaign::kAllOutcomes.size(); ++i)
      job.live.outcomes[i] = acc.outcome_count(campaign::kAllOutcomes[i]);
    job.live.have_outcomes = true;
  };
  shard_opt.pulse = [&](const ShardPulse& p) {
    Live& lv = job.live;
    // Counter deltas first (pulse carries cumulative per-sweep counts).
    if (p.workers_spawned > lv.workers_spawned)
      metrics_.counter("campaignd.workers_spawned")
          .add(p.workers_spawned - lv.workers_spawned);
    if (p.workers_died > lv.workers_died)
      metrics_.counter("campaignd.workers_died")
          .add(p.workers_died - lv.workers_died);
    lv.workers = p.workers;
    lv.workers_spawned = p.workers_spawned;
    lv.workers_died = p.workers_died;
    push_event(job, false);
  };
  shard_opt.service = [this] { service_once(0); };
  shard_opt.should_abort = [this] { return stop_; };

  const ShardOutcome outcome = run_sharded(job.spec.options, golden,
                                           shard_opt);
  if (outcome.aborted) {
    job.state = JobState::kInterrupted;
    job.error = "interrupted by daemon shutdown; resume to continue from "
                "the checkpoint";
    return;
  }
  if (!outcome.ok) {
    job.state = JobState::kFailed;
    job.error = outcome.error;
    return;
  }
  std::string trials;
  for (const std::string& line : outcome.trial_lines) {
    trials += line;
    trials += '\n';
  }
  job.state = write_job_outputs(job, trials, outcome.lineage_lines,
                                outcome.acc.to_json())
                  ? JobState::kDone
                  : JobState::kFailed;
}

void Server::run_exhaustive_job(Job& job) {
  // The sweep runs on its own thread so the supervisor can keep
  // servicing the control socket (ping/status/submit/wait stay answered
  // mid-job, as for sharded jobs) and can translate request_stop into an
  // abort instead of grinding to the end.
  std::atomic<std::uint64_t> words_done{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> finished{false};
  campaign::exhaustive::Result r;
  std::thread sweep([&] {
    r = campaign::exhaustive::run(
        job.spec.exhaustive_options,
        [&](std::uint64_t done, std::uint64_t) {
          words_done.store(done, std::memory_order_relaxed);
        },
        [&] { return abort.load(std::memory_order_relaxed); });
    finished.store(true, std::memory_order_release);
  });
  while (!finished.load(std::memory_order_acquire)) {
    if (stop_) abort.store(true, std::memory_order_relaxed);
    service_once(50);
    update_live_progress(job, words_done.load(std::memory_order_relaxed),
                         job.trials_total);
  }
  sweep.join();
  job.trials_done = words_done.load(std::memory_order_relaxed);
  if (r.aborted) {
    job.state = JobState::kInterrupted;
    job.error = "interrupted by daemon shutdown; resume to rerun the sweep";
    return;
  }
  job.trials_done = r.options.words;
  if (!write_job_outputs(job, "", "", r.to_json())) {
    job.state = JobState::kFailed;
    return;
  }
  if (!r.ok()) {
    job.state = JobState::kFailed;
    job.error = "exhaustive SECDED enumeration violated the analytic "
                "guarantees (see aggregate.json)";
    return;
  }
  job.state = JobState::kDone;
}

void Server::run_next_job() {
  const std::string id = queue_.front();
  queue_.pop_front();
  Job* job = find_job(id);
  if (job == nullptr) return;
  job->state = JobState::kRunning;
  job->trials_done = 0;
  job->error.clear();
  job->live = Live{};
  job->live.started_ns = job->live.last_ns = now_ns();
  running_ = id;
  if (job->spec.exhaustive) {
    run_exhaustive_job(*job);
  } else {
    run_campaign_job(*job);
  }
  running_.clear();
  metrics_
      .counter(job->state == JobState::kDone ? "campaignd.jobs_completed"
                                             : "campaignd.jobs_failed")
      .add(1);
  metrics_.histogram("campaignd.job_seconds", {})
      .observe(static_cast<double>(now_ns() - job->live.started_ns) * 1e-9);
  notify_waiters(*job);
  push_event(*job, true);
}

}  // namespace abftecc::campaignd
