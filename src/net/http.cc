#include "net/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>

namespace rj::net {

namespace {

// How often a blocked read wakes up to poll `cancelled`. Short enough that
// a draining server stops within a human-imperceptible delay, long enough
// that idle keep-alive connections cost ~5 wakeups/sec.
constexpr double kPollIntervalSeconds = 0.2;

std::string ToLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses the head (request line + headers) in [0, head_end) of `buf`.
// Does not touch the body.
Status ParseHead(const std::string& buf, std::size_t head_end,
                 HttpRequest* out) {
  std::size_t line_end = buf.find("\r\n");
  if (line_end == std::string::npos || line_end > head_end) {
    return Status::InvalidArgument("http: missing request line");
  }
  const std::string request_line = buf.substr(0, line_end);
  std::size_t sp1 = request_line.find(' ');
  std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Status::InvalidArgument("http: malformed request line");
  }
  out->method = request_line.substr(0, sp1);
  out->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  out->version = request_line.substr(sp2 + 1);
  if (out->method.empty() || out->target.empty() || out->target[0] != '/') {
    return Status::InvalidArgument("http: malformed request line");
  }
  if (out->version != "HTTP/1.1" && out->version != "HTTP/1.0") {
    return Status::InvalidArgument("http: unsupported version '" +
                                   out->version + "'");
  }

  constexpr std::size_t kMaxHeaders = 100;
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) {
      return Status::InvalidArgument("http: malformed header block");
    }
    const std::string line = buf.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) break;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("http: malformed header line");
    }
    if (out->headers.size() >= kMaxHeaders) {
      return Status::InvalidArgument("http: too many headers");
    }
    out->headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                              Trim(line.substr(colon + 1)));
  }
  return Status::OK();
}

// The body length a request declares: Content-Length is 1*DIGIT (RFC 9110
// §8.6), and a repeated header must repeat the same value; anything else is
// a malformed request (RFC 9112 §6.3). nullopt when no header is present.
Result<std::optional<unsigned long long>> DeclaredContentLength(
    const HttpRequest& request) {
  std::optional<unsigned long long> length;
  for (const auto& [name, value] : request.headers) {
    if (name != "content-length") continue;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos ||
        errno != 0 || (length.has_value() && *length != v)) {
      return Status::InvalidArgument("http: bad Content-Length");
    }
    length = v;
  }
  return length;
}

}  // namespace

const std::string* HttpRequest::FindHeader(
    const std::string& name_lower) const {
  for (const auto& h : headers) {
    if (h.first == name_lower) return &h.second;
  }
  return nullptr;
}

HttpResponse HttpResponse::Json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

HttpResponse& HttpResponse::SetHeader(std::string name, std::string value) {
  headers.emplace_back(std::move(name), std::move(value));
  return *this;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

Result<ReadOutcome> ReadHttpRequest(int fd, const HttpLimits& limits,
                                    double idle_timeout_seconds,
                                    const std::function<bool()>& cancelled,
                                    std::string* carry, HttpRequest* out) {
  *out = HttpRequest();
  std::string& buf = *carry;
  RJ_RETURN_NOT_OK(SetRecvTimeout(fd, kPollIntervalSeconds));

  const double start = NowSeconds();
  std::size_t head_end = std::string::npos;
  std::size_t body_len = 0;
  bool head_parsed = false;
  char chunk[4096];

  while (true) {
    // Parse as soon as the buffered bytes suffice; only recv when they
    // don't (carry-over from a pipelined peer may hold a full request).
    if (!head_parsed) {
      head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        RJ_RETURN_NOT_OK(ParseHead(buf, head_end + 2, out));
        head_parsed = true;
        RJ_ASSIGN_OR_RETURN(const std::optional<unsigned long long> length,
                            DeclaredContentLength(*out));
        if (length.has_value()) {
          if (*length > limits.max_body_bytes) {
            return Status::CapacityError(
                "http: body exceeds limit of " +
                std::to_string(limits.max_body_bytes) + " bytes");
          }
          body_len = static_cast<std::size_t>(*length);
        } else if (out->FindHeader("transfer-encoding") != nullptr) {
          return Status::InvalidArgument(
              "http: chunked transfer encoding is not supported");
        }
      } else if (buf.size() > limits.max_head_bytes) {
        return Status::CapacityError(
            "http: request head exceeds limit of " +
            std::to_string(limits.max_head_bytes) + " bytes");
      }
    }
    if (head_parsed) {
      const std::size_t total = head_end + 4 + body_len;
      if (buf.size() >= total) {
        out->body = buf.substr(head_end + 4, body_len);
        buf.erase(0, total);
        return ReadOutcome::kRequest;
      }
    }

    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      if (buf.empty() && !head_parsed) return ReadOutcome::kEof;
      return Status::IOError("http: connection closed mid-request");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      if (cancelled && cancelled()) return ReadOutcome::kCancelled;
      // The idle timeout only applies while waiting for a request to
      // *start*; once bytes arrive we wait for the peer to finish.
      if (buf.empty() && !head_parsed &&
          NowSeconds() - start > idle_timeout_seconds) {
        return ReadOutcome::kTimeout;
      }
      continue;
    }
    return Status::IOError(std::string("http: recv failed: ") +
                           std::strerror(errno));
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << ' '
      << HttpStatusText(response.status) << "\r\n";
  out << "Content-Type: " << response.content_type << "\r\n";
  out << "Content-Length: " << response.body.size() << "\r\n";
  out << "Connection: " << (response.close ? "close" : "keep-alive")
      << "\r\n";
  for (const auto& h : response.headers) {
    out << h.first << ": " << h.second << "\r\n";
  }
  out << "\r\n" << response.body;
  return out.str();
}

Status WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IOError(std::string("http: send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Result<int> ListenTcp(const std::string& address, int port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("http: socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("http: bad bind address '" + address +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError(std::string("http: bind failed: ") +
                               std::strerror(errno));
    CloseFd(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    Status s = Status::IOError(std::string("http: listen failed: ") +
                               std::strerror(errno));
    CloseFd(fd);
    return s;
  }
  return fd;
}

Result<int> LocalPort(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IOError(std::string("http: getsockname failed: ") +
                           std::strerror(errno));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(const std::string& address, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("http: socket failed: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("http: bad address '" + address + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status s = Status::IOError(std::string("http: connect failed: ") +
                               std::strerror(errno));
    CloseFd(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SetRecvTimeout(int fd, double seconds) {
  timeval tv;
  tv.tv_sec = static_cast<long>(seconds);
  tv.tv_usec = static_cast<long>((seconds - static_cast<double>(tv.tv_sec)) *
                                 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(std::string("http: SO_RCVTIMEO failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

}  // namespace rj::net
