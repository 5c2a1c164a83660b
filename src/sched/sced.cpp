#include "sched/sced.hpp"

#include <cassert>

namespace hfsc {

ClassId Sced::add_session(const ServiceCurve& sc) {
  assert(sc.is_supported());
  if (sessions_.empty()) sessions_.emplace_back();  // burn id 0
  sessions_.push_back(Session{sc, RuntimeCurve{}, 0, false});
  const ClassId id = static_cast<ClassId>(sessions_.size() - 1);
  queues_.ensure(id);
  return id;
}

void Sced::set_head_deadline(ClassId cls) {
  const Session& s = sessions_[cls];
  const TimeNs head_deadline =
      s.dc.y2x(sat_add(s.work, queues_.head(cls).len));
  by_deadline_.push_or_update(cls, head_deadline);
}

void Sced::enqueue(TimeNs now, Packet pkt) {
  assert(pkt.cls < sessions_.size());
  Session& s = sessions_[pkt.cls];
  const bool was_empty = !queues_.has(pkt.cls);
  queues_.push(pkt);
  if (was_empty) {
    if (!s.ever_active) {
      s.dc = RuntimeCurve(s.sc, now, 0);  // D_i initialized to S_i
      s.ever_active = true;
    } else {
      s.dc.min_with(s.sc, now, s.work);   // eq. (3)
    }
    set_head_deadline(pkt.cls);
  }
}

std::optional<Packet> Sced::dequeue(TimeNs /*now*/) {
  if (by_deadline_.empty()) return std::nullopt;
  const ClassId cls = by_deadline_.pop();
  Session& s = sessions_[cls];
  Packet p = queues_.pop(cls);
  s.work += p.len;
  if (queues_.has(cls)) set_head_deadline(cls);
  return p;
}

}  // namespace hfsc
