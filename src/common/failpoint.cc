#include "common/failpoint.h"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/metrics.h"
#include "common/num_text.h"

namespace gbx {

namespace {

/// Parses a non-empty run of decimal digits that fits an int. Signs,
/// blanks and overflow are malformed.
bool ParseCount(const std::string& digits, int* v) {
  if (digits.empty()) return false;
  for (const char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  NumScanner scan(digits);
  return scan.ReadInt(v) && scan.AtEnd();
}

/// Parses "action" or "action(ARG)" into *hit. Returns false on
/// malformed input.
bool ParseAction(const std::string& text, FailpointHit* hit) {
  std::string word = text;
  int arg = 0;
  bool has_arg = false;
  const std::size_t paren = text.find('(');
  if (paren != std::string::npos) {
    if (text.back() != ')') return false;
    word = text.substr(0, paren);
    if (!ParseCount(text.substr(paren + 1, text.size() - paren - 2), &arg)) {
      return false;
    }
    has_arg = true;
  }
  using Action = FailpointHit::Action;
  if (word == "off" && !has_arg) {
    hit->action = Action::kOff;
  } else if (word == "error" && !has_arg) {
    hit->action = Action::kError;
  } else if (word == "delay" && has_arg) {
    hit->action = Action::kDelay;
  } else if (word == "partial_write" && has_arg) {
    hit->action = Action::kPartialWrite;
  } else if (word == "crash" && !has_arg) {
    hit->action = Action::kCrash;
  } else {
    return false;
  }
  hit->arg = arg;
  return true;
}

/// Parses ":once" / ":every(K)" (the text after the colon).
bool ParseModifier(const std::string& text, bool* once, int* every_k) {
  if (text == "once") {
    *once = true;
    return true;
  }
  if (text.rfind("every(", 0) == 0 && text.back() == ')') {
    return ParseCount(text.substr(6, text.size() - 7), every_k) &&
           *every_k >= 1;
  }
  return false;
}

bool ValidPointName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!(std::isalnum(u) || c == '_' || c == '.' || c == '-')) return false;
  }
  return true;
}

}  // namespace

Failpoints::Failpoints() {
  if (const char* env = std::getenv("GBX_FAILPOINTS")) {
    // A malformed env spec must not be silently half-applied in a
    // production process; report and keep whatever parsed.
    const Status status = Configure(env);
    if (!status.ok()) {
      std::fprintf(stderr, "gbx: GBX_FAILPOINTS: %s\n",
                   status.ToString().c_str());
    }
  }
}

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();  // never destroyed
  return *instance;
}

Status Failpoints::Set(const std::string& name, const std::string& spec) {
  if (!ValidPointName(name)) {
    return Status::InvalidArgument("bad failpoint name '" + name + "'");
  }
  Entry entry;
  entry.spec = spec;
  std::string action_text = spec;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    action_text = spec.substr(0, colon);
    if (!ParseModifier(spec.substr(colon + 1), &entry.once,
                       &entry.every_k)) {
      return Status::InvalidArgument("bad failpoint modifier in '" + spec +
                                     "' (want :once or :every(K))");
    }
  }
  if (!ParseAction(action_text, &entry.hit)) {
    return Status::InvalidArgument(
        "bad failpoint action '" + action_text +
        "' (want off, error, delay(MS), partial_write(N), or crash)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(name);
  if (entry.hit.action == FailpointHit::Action::kOff) {
    if (it != points_.end()) {
      points_.erase(it);
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    return Status::Ok();
  }
  if (it == points_.end()) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
  points_[name] = std::move(entry);
  return Status::Ok();
}

Status Failpoints::Clear(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.erase(name) == 0) {
    return Status::NotFound("failpoint '" + name + "' is not armed");
  }
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
  return Status::Ok();
}

void Failpoints::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_count_.fetch_sub(static_cast<int>(points_.size()),
                         std::memory_order_relaxed);
  points_.clear();
}

Status Failpoints::Configure(const std::string& config) {
  std::size_t begin = 0;
  while (begin <= config.size()) {
    std::size_t end = config.find_first_of(",;", begin);
    if (end == std::string::npos) end = config.size();
    std::string item = config.substr(begin, end - begin);
    begin = end + 1;
    // Tolerate whitespace padding and stray separators.
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.front()))) {
      item.erase(item.begin());
    }
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.back()))) {
      item.pop_back();
    }
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint entry '" + item +
                                     "' is not name=action");
    }
    GBX_RETURN_IF_ERROR(Set(item.substr(0, eq), item.substr(eq + 1)));
  }
  return Status::Ok();
}

std::vector<Failpoints::Info> Failpoints::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Info> out;
  out.reserve(points_.size());
  for (const auto& [name, entry] : points_) {
    Info info;
    info.name = name;
    info.spec = entry.spec;
    info.evals = entry.evals;
    info.hits = entry.hits;
    out.push_back(std::move(info));
  }
  return out;
}

std::int64_t Failpoints::HitCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = lifetime_hits_.find(name);
  return it == lifetime_hits_.end() ? 0 : it->second;
}

FailpointHit Failpoints::Eval(const char* name) {
  FailpointHit hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = points_.find(name);
    if (it == points_.end()) return hit;
    Entry& entry = it->second;
    ++entry.evals;
    if (entry.evals % entry.every_k != 0) return hit;
    ++entry.hits;
    ++lifetime_hits_[name];
    hit = entry.hit;
    // Mirror the fire into the metrics registry so "!metrics" shows
    // which faults a chaos run actually exercised. Fires are rare and
    // we already hold mu_, so the registry lookup cost is irrelevant.
    metrics::MetricsRegistry::Default()
        .GetCounter("gbx_failpoint_hits_total", {{"name", name}},
                    "Failpoint fires by site")
        ->Inc();
    if (entry.once) {
      points_.erase(it);
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // Common actions execute here, outside the lock, so a delay never
  // serializes unrelated failpoints.
  if (hit.action == FailpointHit::Action::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
  } else if (hit.action == FailpointHit::Action::kCrash) {
    // A crash must look like a power cut: no stream flush, no atexit,
    // no stack unwinding.
    ::_exit(kFailpointCrashExitCode);
  }
  return hit;
}

Status FailpointError(const char* name) {
  return Status::Internal(std::string("failpoint '") + name +
                          "': injected error");
}

}  // namespace gbx
