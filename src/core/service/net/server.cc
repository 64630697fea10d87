#include "core/service/net/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/sql/sql.h"
#include "data/serialization.h"

namespace rheem {
namespace net {

namespace {

/// Splits "token=tenant,token2=tenant2" into a map. Malformed entries
/// (missing '=', empty token) are skipped with a warning — a typo in the
/// config must not silently open the server.
std::map<std::string, std::string> ParseAuthTokens(const std::string& spec) {
  std::map<std::string, std::string> tokens;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == 0 || eq == std::string::npos) {
      RHEEM_LOG(Warning) << "ignoring malformed service.net.auth_tokens "
                         << "entry (want token=tenant)";
      continue;
    }
    tokens[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  return tokens;
}

void CountFrame(FrameType type) {
  auto& registry = MetricsRegistry::Global();
  if (!registry.enabled()) return;
  registry.counter(std::string("net.frames.") + FrameTypeToString(type))
      ->Increment();
}

}  // namespace

NetServer::NetServer(RheemContext* ctx, sql::Catalog* catalog)
    : ctx_(ctx),
      catalog_(catalog),
      max_frame_bytes_(static_cast<uint32_t>(std::max<int64_t>(
          1024, ctx->config()
                    .GetInt("service.net.max_frame_bytes",
                            kDefaultMaxFrameBytes)
                    .ValueOr(kDefaultMaxFrameBytes)))),
      page_bytes_(static_cast<uint32_t>(std::max<int64_t>(
          64,
          ctx->config().GetInt("service.net.page_bytes", 64 * 1024)
              .ValueOr(64 * 1024)))),
      max_sessions_(static_cast<std::size_t>(std::max<int64_t>(
          1,
          ctx->config().GetInt("service.net.max_sessions", 256).ValueOr(256)))),
      auth_tokens_(ParseAuthTokens(
          ctx->config().GetString("service.net.auth_tokens", "").ValueOr(""))),
      tenant_max_active_jobs_(std::max<int64_t>(
          0, ctx->config()
                 .GetInt("service.net.tenant_max_active_jobs", 64)
                 .ValueOr(64))),
      drain_grace_ms_(std::max<int64_t>(
          0,
          ctx->config().GetInt("service.net.drain_grace_ms", 200).ValueOr(200))) {
  // Pages must fit inside one frame with room for the PAGE envelope.
  if (page_bytes_ + 1024 > max_frame_bytes_) {
    page_bytes_ = max_frame_bytes_ - 1024;
  }
}

NetServer::~NetServer() { Shutdown(/*drain=*/true); }

Result<int> NetServer::Start(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::AlreadyExists("NetServer already started");

  const std::string host =
      ctx_->config().GetString("service.net.host", "127.0.0.1")
          .ValueOr("127.0.0.1");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad service.net.host: " + host);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind(" + host + ":" + std::to_string(port) +
                           ") failed: " + std::strerror(err));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("listen() failed: ") +
                           std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("getsockname() failed: ") +
                           std::strerror(err));
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  started_ = true;
  stopping_ = false;
  acceptor_ = std::thread([this]() { AcceptLoop(); });
  return port_;
}

int NetServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

void NetServer::AcceptLoop() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      // Transient accept failure (e.g. EMFILE): keep serving.
      continue;
    }

    // Join the sessions that closed since the last accept, outside mu_, so
    // a long-lived server keeps no exited thread stack per connection.
    std::vector<std::thread> exited;
    {
      std::lock_guard<std::mutex> lock(mu_);
      exited.swap(finished_);
    }
    for (std::thread& t : exited) {
      if (t.joinable()) t.join();
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    if (sessions_.size() >= max_sessions_) {
      // Connection-level backpressure, mirroring the JobServer's admission
      // refusals: tell the peer why, then hang up.
      std::string payload;
      ErrorFrame::FromStatus(
          Status::ResourceExhausted(
              "session limit reached (service.net.max_sessions=" +
              std::to_string(max_sessions_) + ")"))
          .Encode(&payload);
      (void)WriteFrame(fd, FrameType::kError, payload, max_frame_bytes_);
      ::close(fd);
      CountIfEnabled(MetricsRegistry::Global().counter("net.sessions_refused"),
                     1);
      continue;
    }
    auto session = std::make_unique<Session>();
    session->id = next_session_id_++;
    session->fd = fd;
    char ip[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    session->peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    Session* raw = session.get();
    ++sessions_opened_;
    CountIfEnabled(MetricsRegistry::Global().counter("net.sessions_opened"), 1);
    sessions_[session->id] = std::move(session);
    raw->thread = std::thread([this, raw]() { SessionLoop(raw); });
  }
}

void NetServer::SessionLoop(Session* session) {
  auto& registry = MetricsRegistry::Global();
  for (;;) {
    auto frame = ReadFrame(session->fd, max_frame_bytes_);
    if (!frame.ok()) {
      // EOF or a frame we refuse to buffer; either way the stream is over.
      if (frame.status().message() != "connection closed") {
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
        CountIfEnabled(registry.counter("net.protocol_errors"), 1);
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++frames_received_;
    }
    CountIfEnabled(registry.counter("net.frames_received"), 1);
    CountFrame(frame->type);
    if (frame->type == FrameType::kBye) {
      if (frame->payload.empty()) (void)SendReply(session, FrameType::kOk, "");
      break;  // clean close
    }
    Status st = HandleFrame(session, *frame);
    // Application-level failures (quota, bad SQL, unknown job) were
    // reported as ERROR frames and the connection stays usable; only a
    // protocol violation poisons the stream.
    if (st.IsIoError()) break;
  }

  // Teardown: a vanished client cannot fetch results, so its unfinished
  // jobs are cancelled (a drain-shutdown waited for them to finish *before*
  // closing the socket, making this a no-op there).
  for (auto& [id, entry] : session->jobs) {
    if (!entry.handle.done()) entry.handle.Cancel();
  }
  ::close(session->fd);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session->id);
    // Move our own thread handle out before the Session object dies; the
    // next accept (or Shutdown) joins it from finished_.
    finished_.push_back(std::move(session->thread));
    sessions_.erase(it);
    ++sessions_closed_;
  }
  CountIfEnabled(registry.counter("net.sessions_closed"), 1);
  cv_.notify_all();
}

Status NetServer::HandleFrame(Session* session, const Frame& frame) {
  TraceSpan span(std::string("frame:") + FrameTypeToString(frame.type), "net");
  Stopwatch watch;
  Status st;
  switch (frame.type) {
    case FrameType::kHello:
      st = HandleHello(session, frame.payload);
      break;
    case FrameType::kSubmit:
    case FrameType::kPoll:
    case FrameType::kCancel:
    case FrameType::kFetch:
      if (!session->authed) {
        st = Status::IoError("frame before HELLO");
        break;
      }
      if (frame.type == FrameType::kSubmit) {
        st = HandleSubmit(session, frame.payload);
      } else if (frame.type == FrameType::kPoll) {
        st = HandlePoll(session, frame.payload);
      } else if (frame.type == FrameType::kCancel) {
        st = HandleCancel(session, frame.payload);
      } else {
        st = HandleFetch(session, frame.payload);
      }
      break;
    default:
      // Server-to-client frame types arriving at the server are a protocol
      // violation.
      st = Status::IoError("unexpected frame type " +
                           std::string(FrameTypeToString(frame.type)));
      break;
  }
  if (!st.ok()) {
    if (st.IsIoError()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
      }
      CountIfEnabled(MetricsRegistry::Global().counter("net.protocol_errors"),
                     1);
    }
    // Best effort even on a poisoned stream: tell the peer why before the
    // caller closes it.
    (void)SendError(session, st);
  }
  auto& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.histogram("net.request_us", DefaultLatencyBoundsMicros())
        ->Observe(static_cast<int64_t>(watch.ElapsedMicros()));
  }
  span.AddTag("ok", st.ok() ? "true" : "false");
  return st;
}

Status NetServer::HandleHello(Session* session, const std::string& payload) {
  if (session->authed) return Status::IoError("duplicate HELLO");
  auto hello = HelloFrame::Decode(payload);
  if (!hello.ok()) return hello.status();

  if (hello->version != kProtocolVersion) {
    return Status::Unsupported("protocol version " +
                               std::to_string(hello->version) +
                               " not supported (server speaks " +
                               std::to_string(kProtocolVersion) + ")");
  }
  std::string tenant;
  if (auth_tokens_.empty()) {
    // Open access: the claimed tenant is accepted as-is (quotas still
    // apply per tenant).
    tenant = hello->tenant.empty() ? "default" : hello->tenant;
  } else {
    auto it = auth_tokens_.find(hello->auth_token);
    if (it == auth_tokens_.end() ||
        (!hello->tenant.empty() && hello->tenant != it->second)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++auth_failures_;
      }
      CountIfEnabled(MetricsRegistry::Global().counter("net.auth_failures"), 1);
      // Deliberately uniform: no hint whether the token or tenant was wrong.
      return Status::IoError("authentication failed");
    }
    tenant = it->second;
  }
  session->authed = true;
  session->tenant = tenant;

  HelloOkFrame reply;
  reply.session_id = session->id;
  reply.tenant = tenant;
  std::string out;
  reply.Encode(&out);
  RHEEM_RETURN_IF_ERROR(SendReply(session, FrameType::kHelloOk, out));
  return Status::OK();
}

Status NetServer::CheckTenantQuota(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Status::Cancelled("server is draining");
  auto& handles = tenant_jobs_[tenant];
  handles.erase(std::remove_if(handles.begin(), handles.end(),
                               [](const JobHandle& h) { return h.done(); }),
                handles.end());
  if (static_cast<int64_t>(handles.size()) >= tenant_max_active_jobs_) {
    ++quota_rejections_;
    CountIfEnabled(MetricsRegistry::Global().counter("net.quota_rejections"),
                   1);
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' has " + std::to_string(handles.size()) +
        " active jobs (service.net.tenant_max_active_jobs=" +
        std::to_string(tenant_max_active_jobs_) + "); retry later");
  }
  return Status::OK();
}

Status NetServer::HandleSubmit(Session* session, const std::string& payload) {
  auto submit = SubmitFrame::Decode(payload);
  if (!submit.ok()) return submit.status();

  // Admission before work: quota refusals must not pay a SQL compile.
  if (Status st = CheckTenantQuota(session->tenant); !st.ok()) {
    return st;
  }

  auto compiled = sql::Compile(ctx_, catalog_, submit->text);
  if (!compiled.ok()) return compiled.status();
  sql::SqlStatement stmt = std::move(compiled).ValueOrDie();

  JobOptions options;
  options.deadline = std::chrono::milliseconds(submit->deadline_ms);
  options.use_plan_cache = submit->use_plan_cache;
  options.use_result_cache = submit->use_result_cache;
  // plan_ptr() shares ownership with the statement's job: the JobServer
  // keeps plan and job alive until the record dies, exactly like SubmitSql.
  auto handle = ctx_->job_server().Submit(stmt.plan_ptr(), options);
  if (!handle.ok()) return handle.status();  // backpressure surfaces here

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Raced a drain: the drain snapshot won't wait for this job, so it
      // must not enter the session's retained set.
      handle->Cancel();
      return Status::Cancelled("server is draining");
    }
    tenant_jobs_[session->tenant].push_back(*handle);
    ++submits_;
  }
  CountIfEnabled(MetricsRegistry::Global().counter("net.submits"), 1);

  JobEntry entry;
  entry.handle = *handle;
  entry.schema = stmt.schema();
  session->jobs[handle->id()] = std::move(entry);

  SubmitOkFrame reply;
  reply.job_id = handle->id();
  reply.schema = stmt.schema();
  std::string out;
  reply.Encode(&out);
  return SendReply(session, FrameType::kSubmitOk, out);
}

void NetServer::MaterializeResult(JobEntry* entry) {
  if (entry->materialized) return;
  auto result = entry->handle.Wait();  // done: returns without blocking
  entry->materialized = true;
  if (!result.ok()) {
    entry->result_status = result.status();
    return;
  }
  entry->result = std::move(result).ValueOrDie().output;

  // Page table: whole rows packed up to page_bytes, at least one row per
  // page so a single oversized row still ships (inside one frame).
  entry->page_starts.push_back(0);
  int64_t page_fill = 0;
  for (std::size_t i = 0; i < entry->result.size(); ++i) {
    const int64_t row_bytes = Serializer::EncodedSize(entry->result.at(i));
    if (page_fill > 0 && page_fill + row_bytes > page_bytes_) {
      entry->page_starts.push_back(i);
      page_fill = 0;
    }
    page_fill += row_bytes;
  }
  entry->page_starts.push_back(entry->result.size());
}

Status NetServer::HandlePoll(Session* session, const std::string& payload) {
  auto poll = JobIdFrame::Decode(payload);
  if (!poll.ok()) return poll.status();
  auto it = session->jobs.find(poll->job_id);
  if (it == session->jobs.end()) {
    return Status::NotFound("unknown job id " + std::to_string(poll->job_id));
  }
  JobEntry& entry = it->second;

  StatusFrame reply;
  reply.job_id = poll->job_id;
  reply.done = entry.handle.done();
  reply.state = static_cast<uint8_t>(entry.handle.state());
  if (reply.done) {
    MaterializeResult(&entry);
    if (entry.result_status.ok()) {
      reply.rows = entry.result.size();
      reply.pages = entry.page_starts.size() - 1;
    } else {
      reply.code = static_cast<uint8_t>(entry.result_status.code());
      reply.message = entry.result_status.message();
      if (reply.message.size() > kMaxMessageBytes) {
        reply.message.resize(kMaxMessageBytes);
      }
    }
  }
  std::string out;
  reply.Encode(&out);
  return SendReply(session, FrameType::kStatus, out);
}

Status NetServer::HandleCancel(Session* session, const std::string& payload) {
  auto cancel = JobIdFrame::Decode(payload);
  if (!cancel.ok()) return cancel.status();
  auto it = session->jobs.find(cancel->job_id);
  if (it == session->jobs.end()) {
    return Status::NotFound("unknown job id " + std::to_string(cancel->job_id));
  }
  it->second.handle.Cancel();
  return SendReply(session, FrameType::kOk, "");
}

Status NetServer::HandleFetch(Session* session, const std::string& payload) {
  auto fetch = FetchFrame::Decode(payload);
  if (!fetch.ok()) return fetch.status();
  auto it = session->jobs.find(fetch->job_id);
  if (it == session->jobs.end()) {
    return Status::NotFound("unknown job id " + std::to_string(fetch->job_id));
  }
  JobEntry& entry = it->second;
  if (!entry.handle.done()) {
    return Status::InvalidArgument("job " + std::to_string(fetch->job_id) +
                                   " still running; poll until done");
  }
  MaterializeResult(&entry);
  if (!entry.result_status.ok()) return entry.result_status;

  const uint64_t pages = entry.page_starts.size() - 1;
  if (fetch->page >= pages) {
    return Status::OutOfRange("page " + std::to_string(fetch->page) +
                              " out of range (job has " +
                              std::to_string(pages) + " pages)");
  }
  const std::size_t begin = entry.page_starts[fetch->page];
  const std::size_t end = entry.page_starts[fetch->page + 1];

  // Only this page's rows are copied and encoded: per-request memory is
  // bounded by page_bytes no matter how large the full result is.
  std::vector<Record> rows(entry.result.records().begin() + begin,
                           entry.result.records().begin() + end);
  PageFrame reply;
  reply.job_id = fetch->job_id;
  reply.page = fetch->page;
  reply.last = fetch->page + 1 == pages;
  reply.dataset_bytes = Serializer::EncodeDataset(Dataset(std::move(rows)));

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pages_served_;
  }
  auto& registry = MetricsRegistry::Global();
  CountIfEnabled(registry.counter("net.pages_served"), 1);
  CountIfEnabled(registry.counter("net.rows_streamed"),
                 static_cast<int64_t>(end - begin));

  std::string out;
  reply.Encode(&out);
  return SendReply(session, FrameType::kPage, out);
}

Status NetServer::SendReply(Session* session, FrameType type,
                            const std::string& payload) {
  Status st = WriteFrame(session->fd, type, payload, max_frame_bytes_);
  if (st.ok()) {
    CountIfEnabled(MetricsRegistry::Global().counter("net.bytes_written"),
                   static_cast<int64_t>(payload.size() + 5));
  }
  return st;
}

Status NetServer::SendError(Session* session, const Status& status) {
  std::string payload;
  ErrorFrame::FromStatus(status).Encode(&payload);
  return SendReply(session, FrameType::kError, payload);
}

void NetServer::Shutdown(bool drain) {
  std::vector<JobHandle> to_drain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
    // Wake the acceptor: shutdown() interrupts a blocked accept() where a
    // bare close() may not.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (drain) {
      for (auto& [tenant, handles] : tenant_jobs_) {
        to_drain.insert(to_drain.end(), handles.begin(), handles.end());
      }
    } else {
      for (auto& [tenant, handles] : tenant_jobs_) {
        for (JobHandle& h : handles) h.Cancel();
      }
    }
  }
  if (acceptor_.joinable()) acceptor_.join();

  if (drain) {
    // Phase 1, jobs: every session-submitted job resolves (new submissions
    // are already refused), mirroring JobServer::Shutdown(drain=true).
    for (JobHandle& h : to_drain) (void)h.Wait();
    // Phase 2, sessions: clients get a grace window to fetch results and
    // say BYE before the sockets go away.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(drain_grace_ms_),
                 [this]() { return sessions_.empty(); });
  }

  // Force-close whatever is left; session threads unblock and exit.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, session] : sessions_) {
      ::shutdown(session->fd, SHUT_RDWR);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return sessions_.empty(); });
  }

  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    started_ = false;
    port_ = 0;
    tenant_jobs_.clear();
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  NetServerStats s;
  s.sessions_opened = sessions_opened_;
  s.sessions_closed = sessions_closed_;
  s.sessions_active = sessions_.size();
  s.frames_received = frames_received_;
  s.submits = submits_;
  s.auth_failures = auth_failures_;
  s.quota_rejections = quota_rejections_;
  s.protocol_errors = protocol_errors_;
  s.pages_served = pages_served_;
  return s;
}

}  // namespace net
}  // namespace rheem
