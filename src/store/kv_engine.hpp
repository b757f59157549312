// Redis-like key/value engine: the storage core of the latency store.
//
// Implements the command subset the system needs (strings, lists, TTLs)
// with RESP semantics. The engine is synchronous; KvServer exposes it over
// the simulated network via RESP, and LatencyStore wraps it with a typed
// schema. Expiry uses an injected clock so virtual time drives TTLs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/resp.hpp"
#include "util/time.hpp"

namespace klb::store {

class KvEngine {
 public:
  using Clock = std::function<util::SimTime()>;

  explicit KvEngine(Clock clock) : clock_(std::move(clock)) {}

  /// Execute one command (already split into parts, e.g. {"LPUSH","k","v"}).
  /// Commands: PING, ECHO, SET (with optional EX seconds), GET, DEL, EXISTS,
  /// EXPIRE, TTL, LPUSH, RPUSH, LPOP, LRANGE, LLEN, LTRIM, KEYS, FLUSHALL,
  /// DBSIZE. Unknown commands return a RESP error, matching Redis.
  /// Runs on the sim thread, one command at a time (matching Redis's
  /// single command-processing thread).
  net::RespValue execute(const std::vector<std::string>& cmd);

  std::size_t key_count() const { return data_.size(); }

 private:
  struct Entry {
    bool is_list = false;
    std::string str;
    std::deque<std::string> list;
    util::SimTime expires = util::SimTime::max();
  };

  // Returns nullptr for missing or expired keys (expired keys are reaped).
  Entry* live(const std::string& key);

  net::RespValue cmd_set(const std::vector<std::string>& cmd);
  net::RespValue cmd_get(const std::vector<std::string>& cmd);
  net::RespValue cmd_del(const std::vector<std::string>& cmd);
  net::RespValue cmd_exists(const std::vector<std::string>& cmd);
  net::RespValue cmd_expire(const std::vector<std::string>& cmd);
  net::RespValue cmd_ttl(const std::vector<std::string>& cmd);
  net::RespValue cmd_push(const std::vector<std::string>& cmd, bool left);
  net::RespValue cmd_lpop(const std::vector<std::string>& cmd);
  net::RespValue cmd_lrange(const std::vector<std::string>& cmd);
  net::RespValue cmd_llen(const std::vector<std::string>& cmd);
  net::RespValue cmd_ltrim(const std::vector<std::string>& cmd);
  net::RespValue cmd_keys(const std::vector<std::string>& cmd);

  Clock clock_;
  std::unordered_map<std::string, Entry> data_;
};

}  // namespace klb::store
