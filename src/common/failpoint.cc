#include "common/failpoint.h"

namespace hermes {

FailpointRegistry& FailpointRegistry::Global() {
  // Leaked singleton, same idiom as MetricsRegistry::Global(): sites are
  // evaluated from destructors (WAL flush on close), so the registry
  // must outlive every static-storage client.
  static FailpointRegistry* const registry = new FailpointRegistry();
  return *registry;
}

FailpointRegistry::Site* FailpointRegistry::GetSite(const std::string& name) {
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    it = sites_.emplace(name, Site{}).first;
    // First evaluation/arm of this site: register its metrics counters.
    // GetCounter takes the metrics mutex (rank 10210) under mu_ (rank
    // 10200), which the lock-order validator permits.
    it->second.hits_counter =
        MetricsRegistry::Global().GetCounter("failpoint." + name + ".hits");
    it->second.fired_counter =
        MetricsRegistry::Global().GetCounter("failpoint." + name + ".fired");
  }
  return &it->second;
}

void FailpointRegistry::Arm(const std::string& name,
                            const FailpointConfig& config) {
  MutexLock lock(&mu_);
  Site* site = GetSite(name);
  site->config = config;
  site->armed = true;
  site->evals = 0;
  site->rng = Rng(config.seed);
}

void FailpointRegistry::Disarm(const std::string& name) {
  MutexLock lock(&mu_);
  GetSite(name)->armed = false;
}

void FailpointRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, site] : sites_) {
    site.armed = false;
    site.evals = 0;
  }
  crashed_ = false;
  unsynced_.clear();
}

FailpointHit FailpointRegistry::Evaluate(const char* name) {
  MutexLock lock(&mu_);
  Site* site = GetSite(name);
  site->evals++;
  site->lifetime_evals++;
  site->hits_counter->Increment();
  bool fired = false;
  if (crashed_) {
    // The simulated process is dead: every I/O boundary fails until the
    // harness resets the registry and re-opens from disk.
    fired = true;
  } else if (site->armed) {
    const FailpointConfig& cfg = site->config;
    const std::uint64_t n = cfg.n == 0 ? 1 : cfg.n;
    switch (cfg.policy) {
      case FailpointConfig::Policy::kNthHit:
        fired = site->evals == n;
        break;
      case FailpointConfig::Policy::kEveryK:
        fired = site->evals % n == 0;
        break;
      case FailpointConfig::Policy::kProbability:
        fired = site->rng.Bernoulli(cfg.probability);
        break;
    }
  }
  if (fired) {
    site->fired++;
    site->fired_counter->Increment();
  }
  return FailpointHit{fired, site->config.arg};
}

void FailpointRegistry::LatchCrash(const char* name) {
  MutexLock lock(&mu_);
  crashed_ = true;
  MetricsRegistry::Global().GetCounter("failpoint.crashes")->Increment();
  GetSite(name);  // ensure the latching site is visible in test hooks
}

bool FailpointRegistry::crashed() const {
  MutexLock lock(&mu_);
  return crashed_;
}

std::uint64_t FailpointRegistry::Evaluations(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.lifetime_evals;
}

std::uint64_t FailpointRegistry::FiredCount(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.fired;
}

void FailpointRegistry::RecordUnsyncedEntry(const std::string& dir,
                                            std::function<void()> undo) {
  MutexLock lock(&mu_);
  unsynced_.emplace_back(dir, std::move(undo));
}

void FailpointRegistry::ForgetUnsyncedEntries(const std::string& dir) {
  MutexLock lock(&mu_);
  std::erase_if(unsynced_, [&dir](const auto& entry) {
    return entry.first == dir;
  });
}

void FailpointRegistry::RevertUnsyncedEntries() {
  std::vector<std::pair<std::string, std::function<void()>>> pending;
  {
    MutexLock lock(&mu_);
    pending.swap(unsynced_);
  }
  // The undos touch the file system, so they run outside mu_.
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) it->second();
}

}  // namespace hermes
