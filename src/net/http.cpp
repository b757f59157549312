#include "net/http.hpp"

#include <charconv>

namespace klb::net {

namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kContentLength = "Content-Length";
constexpr std::size_t kNpos = std::string_view::npos;

// wire[begin, end) without substr's bounds check (and its throw): callers
// pass positions they found inside `wire`.
std::string_view slice(std::string_view wire, std::size_t begin,
                       std::size_t end) {
  return std::string_view(wire.data() + begin, end - begin);
}

void append_header(std::string& out, std::string_view key,
                   std::string_view value) {
  out += key;
  out += ": ";
  out += value;
  out += kCrlf;
}

template <class Int>
void append_number(std::string& out, Int v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

// The automatic Content-Length, the blank line, then the body.
void append_tail(std::string& out, std::string_view body) {
  out += kContentLength;
  out += ": ";
  append_number(out, body.size());
  out += kCrlf;
  out += kCrlf;
  out += body;
}

void serialize_headers(const std::map<std::string, std::string>& headers,
                       const std::string& body, std::string& out) {
  bool have_length = false;
  for (const auto& [k, v] : headers) {
    append_header(out, k, v);
    if (k == kContentLength) have_length = true;
  }
  if (have_length) {
    out += kCrlf;
    out += body;
  } else {
    append_tail(out, body);
  }
}

// The one header grammar. Walks the header lines from `pos` (just past the
// start line's CRLF) to the blank line, handing each (key, value) to
// `on_header` in wire order; a key is everything before the first colon,
// a value everything after it minus leading spaces. Returns the body — the
// last Content-Length's worth of bytes, else the rest of the wire — or
// nullopt on a line without a colon, a missing blank line, or a
// Content-Length that is not a number or promises more than is there.
template <class OnHeader>
std::optional<std::string_view> scan_headers(std::string_view wire,
                                             std::size_t pos,
                                             OnHeader&& on_header) {
  std::optional<std::string_view> content_length;
  while (true) {
    const auto eol = wire.find(kCrlf, pos);
    if (eol == kNpos) return std::nullopt;
    if (eol == pos) {  // blank line: end of headers
      pos += 2;
      break;
    }
    const auto colon = wire.find(':', pos);
    if (colon == kNpos || colon > eol) return std::nullopt;
    std::size_t vbegin = colon + 1;
    while (vbegin < eol && wire[vbegin] == ' ') ++vbegin;
    const auto key = slice(wire, pos, colon);
    const auto value = slice(wire, vbegin, eol);
    if (key == kContentLength) content_length = value;
    on_header(key, value);
    pos = eol + 2;
  }
  std::size_t length = wire.size() - pos;
  if (content_length) {
    const char* end = content_length->data() + content_length->size();
    std::size_t want = 0;
    const auto [p, ec] = std::from_chars(content_length->data(), end, want);
    if (ec != std::errc{} || p != end) return std::nullopt;
    if (want > length) return std::nullopt;  // truncated body
    length = want;
  }
  return slice(wire, pos, pos + length);
}

struct StatusLine {
  int status = 0;
  std::string_view reason;
  std::size_t headers_at = 0;  // just past the status line's CRLF
};

// "HTTP/1.<x> <status>[ <reason>]" up to the first CRLF.
std::optional<StatusLine> read_status_line(std::string_view wire) {
  const auto eol = wire.find(kCrlf);
  if (eol == kNpos) return std::nullopt;
  const auto line = slice(wire, 0, eol);
  constexpr std::string_view kVersion = "HTTP/1.";
  if (line.size() < kVersion.size() ||
      slice(line, 0, kVersion.size()) != kVersion)
    return std::nullopt;
  const auto sp1 = line.find(' ');
  if (sp1 == kNpos) return std::nullopt;
  const auto sp2 = line.find(' ', sp1 + 1);

  StatusLine out;
  const auto code = slice(line, sp1 + 1, sp2 == kNpos ? line.size() : sp2);
  const char* end = code.data() + code.size();
  const auto [p, ec] = std::from_chars(code.data(), end, out.status);
  if (ec != std::errc{} || p != end) return std::nullopt;
  if (sp2 != kNpos) out.reason = slice(line, sp2 + 1, line.size());
  out.headers_at = eol + 2;
  return out;
}

}  // namespace

std::string_view default_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string HttpRequest::serialize() const {
  std::string out = method + " " + target + " HTTP/1.1";
  out += kCrlf;
  serialize_headers(headers, body, out);
  return out;
}

std::optional<HttpRequest> HttpRequest::parse(std::string_view wire) {
  const auto eol = wire.find(kCrlf);
  if (eol == kNpos) return std::nullopt;
  const auto line = slice(wire, 0, eol);
  const auto sp1 = line.find(' ');
  if (sp1 == kNpos) return std::nullopt;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == kNpos) return std::nullopt;
  const auto version = slice(line, sp2 + 1, line.size());
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return std::nullopt;

  HttpRequest req;
  req.method = slice(line, 0, sp1);
  req.target = slice(line, sp1 + 1, sp2);
  if (req.method.empty() || req.target.empty()) return std::nullopt;

  const auto body =
      scan_headers(wire, eol + 2, [&](std::string_view k, std::string_view v) {
        req.headers[std::string(k)] = v;
      });
  if (!body) return std::nullopt;
  req.body = *body;
  return req;
}

std::string HttpResponse::serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  if (reason.empty()) {
    out += default_reason(status);
  } else {
    out += reason;
  }
  out += kCrlf;
  serialize_headers(headers, body, out);
  return out;
}

std::optional<HttpResponse> HttpResponse::parse(std::string_view wire) {
  const auto line = read_status_line(wire);
  if (!line) return std::nullopt;
  HttpResponse resp;
  resp.status = line->status;
  resp.reason = line->reason;
  const auto body = scan_headers(
      wire, line->headers_at, [&](std::string_view k, std::string_view v) {
        resp.headers[std::string(k)] = v;
      });
  if (!body) return std::nullopt;
  resp.body = *body;
  return resp;
}

std::optional<ResponseHead> read_response_head(std::string_view wire) {
  const auto line = read_status_line(wire);
  if (!line) return std::nullopt;
  ResponseHead head;
  head.status = line->status;
  const auto body = scan_headers(
      wire, line->headers_at, [&](std::string_view k, std::string_view v) {
        if (k == "Server") head.server = v;  // the last one wins
      });
  if (!body) return std::nullopt;
  return head;
}

void write_get_request(std::string& out, std::string_view target,
                       IpAddr host) {
  // Request line, Host (at most 15 chars), Content-Length: 0, blank line.
  out.reserve(out.size() + target.size() + 64);
  out += "GET ";
  out += target;
  out += " HTTP/1.1";
  out += kCrlf;
  out += "Host: ";
  host.append_to(out);
  out += kCrlf;
  append_tail(out, {});
}

void write_response(std::string& out, int status, std::string_view server,
                    std::string_view body) {
  const auto reason = default_reason(status);
  // 80 covers the fixed text and both numbers at their widest.
  out.reserve(out.size() + reason.size() + server.size() + body.size() + 80);
  out += "HTTP/1.1 ";
  append_number(out, status);
  out += ' ';
  out += reason;
  out += kCrlf;
  append_header(out, "Server", server);
  append_tail(out, body);
}

}  // namespace klb::net
