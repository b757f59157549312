#include "store/kv_engine.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace klb::store {

namespace {

using net::RespValue;

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

bool parse_i64(const std::string& s, std::int64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

RespValue wrong_args(const std::string& cmd) {
  return RespValue::error("ERR wrong number of arguments for '" + cmd + "'");
}

RespValue wrong_type() {
  return RespValue::error(
      "WRONGTYPE Operation against a key holding the wrong kind of value");
}

}  // namespace

KvEngine::Entry* KvEngine::live(const std::string& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return nullptr;
  if (it->second.expires <= clock_()) {
    data_.erase(it);
    return nullptr;
  }
  return &it->second;
}

net::RespValue KvEngine::execute(const std::vector<std::string>& cmd) {
  if (cmd.empty()) return RespValue::error("ERR empty command");
  const std::string op = upper(cmd[0]);

  if (op == "PING")
    return cmd.size() > 1 ? RespValue::bulk(cmd[1]) : RespValue::simple("PONG");
  if (op == "ECHO")
    return cmd.size() == 2 ? RespValue::bulk(cmd[1]) : wrong_args("echo");
  if (op == "SET") return cmd_set(cmd);
  if (op == "GET") return cmd_get(cmd);
  if (op == "DEL") return cmd_del(cmd);
  if (op == "EXISTS") return cmd_exists(cmd);
  if (op == "EXPIRE") return cmd_expire(cmd);
  if (op == "TTL") return cmd_ttl(cmd);
  if (op == "LPUSH") return cmd_push(cmd, /*left=*/true);
  if (op == "RPUSH") return cmd_push(cmd, /*left=*/false);
  if (op == "LPOP") return cmd_lpop(cmd);
  if (op == "LRANGE") return cmd_lrange(cmd);
  if (op == "LLEN") return cmd_llen(cmd);
  if (op == "LTRIM") return cmd_ltrim(cmd);
  if (op == "KEYS") return cmd_keys(cmd);
  if (op == "DBSIZE")
    return RespValue::integer_of(static_cast<std::int64_t>(data_.size()));
  if (op == "FLUSHALL") {
    data_.clear();
    return RespValue::simple("OK");
  }
  return RespValue::error("ERR unknown command '" + cmd[0] + "'");
}

net::RespValue KvEngine::cmd_set(const std::vector<std::string>& cmd) {
  if (cmd.size() != 3 && cmd.size() != 5) return wrong_args("set");
  Entry e;
  e.str = cmd[2];
  if (cmd.size() == 5) {
    if (upper(cmd[3]) != "EX") return RespValue::error("ERR syntax error");
    std::int64_t secs = 0;
    if (!parse_i64(cmd[4], secs) || secs <= 0)
      return RespValue::error("ERR invalid expire time in 'set' command");
    e.expires = clock_() + util::SimTime::seconds(static_cast<double>(secs));
  }
  data_[cmd[1]] = std::move(e);
  return RespValue::simple("OK");
}

net::RespValue KvEngine::cmd_get(const std::vector<std::string>& cmd) {
  if (cmd.size() != 2) return wrong_args("get");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::null();
  if (e->is_list) return wrong_type();
  return RespValue::bulk(e->str);
}

net::RespValue KvEngine::cmd_del(const std::vector<std::string>& cmd) {
  if (cmd.size() < 2) return wrong_args("del");
  std::int64_t removed = 0;
  for (std::size_t i = 1; i < cmd.size(); ++i)
    removed += static_cast<std::int64_t>(data_.erase(cmd[i]));
  return RespValue::integer_of(removed);
}

net::RespValue KvEngine::cmd_exists(const std::vector<std::string>& cmd) {
  if (cmd.size() < 2) return wrong_args("exists");
  std::int64_t found = 0;
  for (std::size_t i = 1; i < cmd.size(); ++i)
    if (live(cmd[i])) ++found;
  return RespValue::integer_of(found);
}

net::RespValue KvEngine::cmd_expire(const std::vector<std::string>& cmd) {
  if (cmd.size() != 3) return wrong_args("expire");
  std::int64_t secs = 0;
  if (!parse_i64(cmd[2], secs)) return RespValue::error("ERR value is not an integer");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::integer_of(0);
  e->expires = clock_() + util::SimTime::seconds(static_cast<double>(secs));
  return RespValue::integer_of(1);
}

net::RespValue KvEngine::cmd_ttl(const std::vector<std::string>& cmd) {
  if (cmd.size() != 2) return wrong_args("ttl");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::integer_of(-2);
  if (e->expires == util::SimTime::max()) return RespValue::integer_of(-1);
  return RespValue::integer_of(
      static_cast<std::int64_t>((e->expires - clock_()).sec()));
}

net::RespValue KvEngine::cmd_push(const std::vector<std::string>& cmd,
                                  bool left) {
  if (cmd.size() < 3) return wrong_args(left ? "lpush" : "rpush");
  Entry* e = live(cmd[1]);
  if (e && !e->is_list) return wrong_type();
  if (!e) {
    Entry fresh;
    fresh.is_list = true;
    e = &(data_[cmd[1]] = std::move(fresh));
  }
  for (std::size_t i = 2; i < cmd.size(); ++i) {
    if (left)
      e->list.push_front(cmd[i]);
    else
      e->list.push_back(cmd[i]);
  }
  return RespValue::integer_of(static_cast<std::int64_t>(e->list.size()));
}

net::RespValue KvEngine::cmd_lpop(const std::vector<std::string>& cmd) {
  if (cmd.size() != 2) return wrong_args("lpop");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::null();
  if (!e->is_list) return wrong_type();
  if (e->list.empty()) return RespValue::null();
  auto v = RespValue::bulk(e->list.front());
  e->list.pop_front();
  if (e->list.empty()) data_.erase(cmd[1]);
  return v;
}

net::RespValue KvEngine::cmd_lrange(const std::vector<std::string>& cmd) {
  if (cmd.size() != 4) return wrong_args("lrange");
  std::int64_t start = 0;
  std::int64_t stop = 0;
  if (!parse_i64(cmd[2], start) || !parse_i64(cmd[3], stop))
    return RespValue::error("ERR value is not an integer");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::array_of({});
  if (!e->is_list) return wrong_type();

  const auto n = static_cast<std::int64_t>(e->list.size());
  if (start < 0) start = std::max<std::int64_t>(0, n + start);
  if (stop < 0) stop = n + stop;
  stop = std::min(stop, n - 1);
  net::RespArray items;
  for (std::int64_t i = start; i <= stop; ++i)
    items.push_back(RespValue::bulk(e->list[static_cast<std::size_t>(i)]));
  return RespValue::array_of(std::move(items));
}

net::RespValue KvEngine::cmd_llen(const std::vector<std::string>& cmd) {
  if (cmd.size() != 2) return wrong_args("llen");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::integer_of(0);
  if (!e->is_list) return wrong_type();
  return RespValue::integer_of(static_cast<std::int64_t>(e->list.size()));
}

net::RespValue KvEngine::cmd_ltrim(const std::vector<std::string>& cmd) {
  if (cmd.size() != 4) return wrong_args("ltrim");
  std::int64_t start = 0;
  std::int64_t stop = 0;
  if (!parse_i64(cmd[2], start) || !parse_i64(cmd[3], stop))
    return RespValue::error("ERR value is not an integer");
  Entry* e = live(cmd[1]);
  if (!e) return RespValue::simple("OK");
  if (!e->is_list) return wrong_type();

  const auto n = static_cast<std::int64_t>(e->list.size());
  if (start < 0) start = std::max<std::int64_t>(0, n + start);
  if (stop < 0) stop = n + stop;
  stop = std::min(stop, n - 1);
  if (start > stop) {
    data_.erase(cmd[1]);
    return RespValue::simple("OK");
  }
  std::deque<std::string> kept(
      e->list.begin() + static_cast<std::ptrdiff_t>(start),
      e->list.begin() + static_cast<std::ptrdiff_t>(stop + 1));
  e->list = std::move(kept);
  return RespValue::simple("OK");
}

net::RespValue KvEngine::cmd_keys(const std::vector<std::string>& cmd) {
  // Only the "*" pattern is supported (all the system uses).
  if (cmd.size() != 2) return wrong_args("keys");
  net::RespArray items;
  std::vector<std::string> keys;
  for (const auto& [k, _] : data_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (auto& k : keys) {
    if (cmd[1] == "*" || cmd[1] == k) items.push_back(RespValue::bulk(k));
  }
  return RespValue::array_of(std::move(items));
}

}  // namespace klb::store
