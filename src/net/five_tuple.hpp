// TCP/IP 5-tuples and the ECMP-style hash used by hash-based L4 LBs
// (Azure LB in the paper balances purely on a 5-tuple hash; MUXes also use
// the tuple as the connection-affinity key).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/address.hpp"

namespace klb::net {

enum class Proto : std::uint8_t { kTcp = 6, kUdp = 17, kIcmp = 1 };

struct FiveTuple {
  IpAddr src_ip;
  IpAddr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Proto proto = Proto::kTcp;

  bool operator==(const FiveTuple& o) const {
    return src_ip == o.src_ip && dst_ip == o.dst_ip &&
           src_port == o.src_port && dst_port == o.dst_port &&
           proto == o.proto;
  }
  bool operator!=(const FiveTuple& o) const { return !(*this == o); }

  std::string str() const {
    return src_ip.str() + ":" + std::to_string(src_port) + "->" +
           dst_ip.str() + ":" + std::to_string(dst_port);
  }
};

/// 64-bit mix of the 5-tuple. Stable across platforms (pure arithmetic);
/// statistically uniform so an `hash % n` DIP pick emulates ECMP spreading.
/// Per-packet stage-A work: no allocation.
inline std::uint64_t hash_tuple(const FiveTuple& t) {
  auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  h = mix(h ^ t.src_ip.value());
  h = mix(h ^ t.dst_ip.value());
  h = mix(h ^ ((std::uint64_t{t.src_port} << 32) | t.dst_port));
  h = mix(h ^ static_cast<std::uint64_t>(t.proto));
  return h;
}

}  // namespace klb::net

template <>
struct std::hash<klb::net::FiveTuple> {
  std::size_t operator()(const klb::net::FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(klb::net::hash_tuple(t));
  }
};
