#ifndef RHEEM_CORE_SERVICE_NET_SERVER_H_
#define RHEEM_CORE_SERVICE_NET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/api/context.h"
#include "core/service/job_server.h"
#include "core/service/net/wire.h"

namespace rheem {

namespace sql {
class Catalog;
}  // namespace sql

namespace net {

/// One consistent snapshot of a NetServer's life so far.
struct NetServerStats {
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  std::size_t sessions_active = 0;
  int64_t frames_received = 0;
  int64_t submits = 0;
  int64_t auth_failures = 0;
  int64_t quota_rejections = 0;
  int64_t protocol_errors = 0;
  int64_t pages_served = 0;
};

/// \brief The network face of the job service: a TCP server speaking the
/// length-prefixed binary protocol of core/service/net/wire.h, turning the
/// in-process JobServer into something many applications can share — the
/// paper's one-engine-for-many-apps deployment made reachable over a socket.
///
/// Thread model: one acceptor thread plus one blocking thread per
/// connection (a session); the acceptor joins closed sessions' threads
/// before it starts the next one. A session must HELLO first — the auth token
/// resolves to a tenant — then SUBMITs SQL (compiled by the PR-8 frontend
/// and admitted through the context's JobServer), POLLs, CANCELs, and
/// FETCHes results page by page: each PAGE re-encodes only that page's rows
/// through Serializer, so server memory per request stays bounded by
/// `service.net.page_bytes` regardless of result size.
///
/// Admission layers, outermost first:
///   1. `service.net.max_sessions` caps concurrent connections;
///   2. per-tenant quota `service.net.tenant_max_active_jobs` caps a
///      tenant's not-yet-finished jobs across all its sessions;
///   3. the JobServer's own queue-depth backpressure (ResourceExhausted)
///      applies as for in-process submissions.
///
/// Shutdown(drain=true) mirrors JobServer::Shutdown: stop accepting, reject
/// new SUBMITs, wait for every session-submitted job to resolve, give
/// sessions `service.net.drain_grace_ms` to fetch and say BYE, then close.
/// drain=false cancels session jobs and closes immediately.
///
/// Every frame type is counted (`net.frames.<type>`) and traced
/// (span "frame:<type>", category "net"); protocol violations — malformed
/// payloads, oversized frames, unknown types — are counted in
/// `net.protocol_errors` and poison the connection (ERROR frame, then
/// close), never the server.
///
/// Config keys (read from the context's Config at construction):
///   service.net.host               (string, default "127.0.0.1")
///   service.net.max_frame_bytes    (int, default 4 MiB)
///   service.net.page_bytes         (int, default 64 KiB) FETCH page target
///   service.net.max_sessions       (int, default 256)
///   service.net.auth_tokens        (string, default "" = open access)
///       comma list of "token=tenant" pairs; non-empty makes HELLO require
///       a listed token, and the session runs as that token's tenant
///   service.net.tenant_max_active_jobs (int, default 64) 0 = reject all
///   service.net.drain_grace_ms     (int, default 200)
class NetServer {
 public:
  /// `ctx` supplies the config and the JobServer; `catalog` resolves table
  /// names in submitted SQL. Both are borrowed and must outlive Shutdown().
  NetServer(RheemContext* ctx, sql::Catalog* catalog);
  ~NetServer();  // Shutdown(/*drain=*/true)

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds `service.net.host`:`port` (0 = ephemeral), starts the acceptor
  /// and returns the bound port. AlreadyExists when called twice.
  Result<int> Start(int port = 0);

  /// The bound port; 0 before Start().
  int port() const;

  /// Stops accepting and tears sessions down (see class comment). Safe to
  /// call twice; the destructor drains.
  void Shutdown(bool drain = true);

  NetServerStats stats() const;

 private:
  /// Paging + lifetime state for one job retained by a session. The handle
  /// keeps the JobServer record (and through it the compiled statement)
  /// alive until the session drops it.
  struct JobEntry {
    JobHandle handle;
    Schema schema;
    bool materialized = false;
    Status result_status;  // terminal status once materialized
    Dataset result;        // owned copy of the output once materialized
    /// Row index where each page begins, plus a final sentinel = row count;
    /// pages pack whole rows up to `page_bytes` (at least one row each).
    std::vector<std::size_t> page_starts;
  };

  struct Session {
    uint64_t id = 0;
    int fd = -1;
    std::string peer;  // "ip:port" for logs
    std::thread thread;
    bool authed = false;
    std::string tenant;
    std::map<uint64_t, JobEntry> jobs;  // keyed by JobServer job id
  };

  void AcceptLoop();
  void SessionLoop(Session* session);
  /// Handles one decoded frame; IoError return poisons the connection.
  Status HandleFrame(Session* session, const Frame& frame);

  Status HandleHello(Session* session, const std::string& payload);
  Status HandleSubmit(Session* session, const std::string& payload);
  Status HandlePoll(Session* session, const std::string& payload);
  Status HandleCancel(Session* session, const std::string& payload);
  Status HandleFetch(Session* session, const std::string& payload);

  /// Waits for the entry's job (it must be done), copies the output once
  /// and computes the page table.
  void MaterializeResult(JobEntry* entry);

  /// Admission-time per-tenant quota: prunes finished handles and refuses
  /// when `tenant` already has `tenant_max_active_jobs_` unfinished jobs.
  Status CheckTenantQuota(const std::string& tenant);

  Status SendReply(Session* session, FrameType type,
                   const std::string& payload);
  /// ERROR frame for an application-level failure; the connection survives.
  Status SendError(Session* session, const Status& status);

  RheemContext* ctx_;        // not owned
  sql::Catalog* catalog_;    // not owned
  uint32_t max_frame_bytes_;
  uint32_t page_bytes_;
  std::size_t max_sessions_;
  std::map<std::string, std::string> auth_tokens_;  // token -> tenant
  int64_t tenant_max_active_jobs_;
  int64_t drain_grace_ms_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // session teardown progress
  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;
  bool stopping_ = false;  // no new connections or submissions
  std::thread acceptor_;
  uint64_t next_session_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> finished_;  // session threads awaiting join
  /// Unfinished jobs per tenant, pruned at admission time.
  std::map<std::string, std::vector<JobHandle>> tenant_jobs_;

  int64_t sessions_opened_ = 0;
  int64_t sessions_closed_ = 0;
  int64_t frames_received_ = 0;
  int64_t submits_ = 0;
  int64_t auth_failures_ = 0;
  int64_t quota_rejections_ = 0;
  int64_t protocol_errors_ = 0;
  int64_t pages_served_ = 0;
};

}  // namespace net
}  // namespace rheem

#endif  // RHEEM_CORE_SERVICE_NET_SERVER_H_
