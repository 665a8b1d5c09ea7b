#include "src/obs/profile.h"

#include "src/obs/json.h"

namespace gridbox::obs {

namespace {
thread_local ProfileCollector* t_current_collector = nullptr;
}  // namespace

ProfileCollector* ProfileCollector::current() { return t_current_collector; }

void ProfileCollector::record(const char* section, std::uint64_t ns) {
  ProfileEntry& entry = entries_[section];
  ++entry.count;
  entry.total_ns += ns;
}

ProfileSnapshot ProfileCollector::snapshot() const {
  ProfileSnapshot snap;
  for (const auto& [name, entry] : entries_) {
    // Merge, don't assign: distinct pointers can carry the same section
    // name (one literal per translation unit), and assignment would keep
    // only whichever pointer sorted last.
    ProfileEntry& out = snap.sections[std::string(name)];
    out.count += entry.count;
    out.total_ns += entry.total_ns;
  }
  return snap;
}

ProfileInstallGuard::ProfileInstallGuard(ProfileCollector* collector)
    : previous_(t_current_collector) {
  t_current_collector = collector;
}

ProfileInstallGuard::~ProfileInstallGuard() {
  t_current_collector = previous_;
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  for (const auto& [name, entry] : other.sections) {
    ProfileEntry& mine = sections[name];
    mine.count += entry.count;
    mine.total_ns += entry.total_ns;
  }
}

std::string ProfileSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  for (const auto& [name, entry] : sections) {
    w.key(name).begin_object();
    w.key("count").value(entry.count);
    w.key("total_ns").value(entry.total_ns);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace gridbox::obs
