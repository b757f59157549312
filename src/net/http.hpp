// Minimal HTTP/1.1 message model and wire codec.
//
// The simulated web servers, the KLM prober, and the clients exchange real
// HTTP/1.1 byte strings. Serializing is not strictly necessary for the
// simulation, but keeping a real wire format (a) sizes messages for the
// fabric's bandwidth model and (b) keeps the codec testable against
// hand-written HTTP.
//
// HttpRequest/HttpResponse are the general map-backed message model. The
// per-request client <-> DIP hop does not build them: write_get_request
// and write_response append the same bytes serialize() gives straight
// into a payload, and read_response_head reads a response's status and
// Server header in place. The readers share one header grammar, so the
// head reader accepts and rejects exactly what HttpResponse::parse does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "net/address.hpp"

namespace klb::net {

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::map<std::string, std::string> headers;
  std::string body;

  std::string serialize() const;
  /// Parse a complete request from `wire`. Returns nullopt on malformed
  /// input or when the Content-Length promises more body than provided.
  static std::optional<HttpRequest> parse(std::string_view wire);
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  std::string body;

  bool ok() const { return status >= 200 && status < 300; }

  std::string serialize() const;
  static std::optional<HttpResponse> parse(std::string_view wire);
};

/// Canonical reason phrase for the status codes the simulator emits.
std::string_view default_reason(int status);

/// The two fields a client reads from a response.
struct ResponseHead {
  int status = 0;
  /// The last `Server` header's value, a view into the wire; empty when
  /// there is none.
  std::string_view server;

  bool ok() const { return status >= 200 && status < 300; }
};

/// Reads `wire`'s status and Server header without copying or allocating.
/// Returns nullopt exactly when HttpResponse::parse(wire) would.
std::optional<ResponseHead> read_response_head(std::string_view wire);

/// Appends what HttpRequest{"GET", target, {{"Host", host.str()}}}
/// .serialize() gives: the request line, Host, then Content-Length: 0.
void write_get_request(std::string& out, std::string_view target,
                       IpAddr host);

/// Appends what HttpResponse{status, default_reason(status),
/// {{"Server", server}}, body}.serialize() gives.
void write_response(std::string& out, int status, std::string_view server,
                    std::string_view body);

}  // namespace klb::net
