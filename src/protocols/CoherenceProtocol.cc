/**
 * @file
 * Protocol-state / event name tables for diagnostics, and the
 * illegal-edge report.
 */

#include "protocols/CoherenceProtocol.hh"

#include "sim/Logging.hh"

namespace spmcoh
{

const char *
pstateName(PState s)
{
    switch (s) {
      case PState::I: return "I";
      case PState::S: return "S";
      case PState::E: return "E";
      case PState::O: return "O";
      case PState::M: return "M";
    }
    return "?";
}

const char *
peventName(PEvent e)
{
    switch (e) {
      case PEvent::Load:    return "Load";
      case PEvent::Store:   return "Store";
      case PEvent::FwdGetS: return "FwdGetS";
      case PEvent::FwdGetX: return "FwdGetX";
      case PEvent::Inv:     return "Inv";
      case PEvent::Update:  return "Update";
      case PEvent::Replace: return "Replace";
    }
    return "?";
}

void
CoherenceProtocol::illegal(PState s, PEvent e) const
{
    fatal("protocol '" + nm + "': illegal transition (" + pstateName(s) +
          ", " + peventName(e) + ")");
}

} // namespace spmcoh
