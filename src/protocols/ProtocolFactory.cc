/**
 * @file
 * Built-in coherence protocols and the global factory.
 *
 * Each built-in protocol is a function that fills one transition
 * table. Three machines are registered:
 *
 *  - MOESI with owner-forwarding (under both "spm-hybrid", the
 *    default that the paper's hybrid system runs on, and the alias
 *    "moesi"): a dirty owner answering a GetS keeps the line in O,
 *    so producer/consumer sharing never touches the L2 slice.
 *  - Plain MESI ("mesi"): no Owned state. A dirty owner answering a
 *    GetS downgrades to S and the directory absorbs the dirty line
 *    into its L2 slice, trading L1-to-L1 forwarding for extra L2 /
 *    memory pressure.
 *  - Dragon-style update protocol ("dragon"): stores to shared lines
 *    ship the written word to the home slice, which applies it and
 *    pushes the new line to every sharer instead of invalidating
 *    them. Write-heavy sharing turns into update fan-out traffic.
 */

#include "protocols/ProtocolFactory.hh"

#include "sim/Logging.hh"

namespace spmcoh
{

namespace
{

using Proto = std::unique_ptr<CoherenceProtocol>;

/** MOESI directory machine with owner-forwarding. */
Proto
moesi(std::string name, std::string desc)
{
    auto p = std::make_unique<CoherenceProtocol>(std::move(name),
                                                 std::move(desc));
    p->set(PState::I, PEvent::Load, PState::S, PAction::IssueGetS);
    for (PState s : {PState::S, PState::E, PState::O, PState::M})
        p->set(s, PEvent::Load, s, PAction::Hit);

    p->set(PState::I, PEvent::Store, PState::M, PAction::IssueGetX);
    p->set(PState::S, PEvent::Store, PState::M, PAction::IssueGetX);
    p->set(PState::E, PEvent::Store, PState::M, PAction::Hit);
    p->set(PState::O, PEvent::Store, PState::M, PAction::IssueGetX);
    p->set(PState::M, PEvent::Store, PState::M, PAction::Hit);

    // A dirty owner serving a read keeps the line (-> Owned).
    p->set(PState::S, PEvent::FwdGetS, PState::S, PAction::SendData);
    p->set(PState::E, PEvent::FwdGetS, PState::S, PAction::SendData);
    p->set(PState::O, PEvent::FwdGetS, PState::O, PAction::SendData);
    p->set(PState::M, PEvent::FwdGetS, PState::O, PAction::SendData);

    for (PState s : {PState::S, PState::E, PState::O, PState::M}) {
        p->set(s, PEvent::FwdGetX, PState::I, PAction::SendData);
        p->set(s, PEvent::Inv, PState::I, PAction::SendData);
    }

    p->set(PState::S, PEvent::Replace, PState::I, PAction::PutShared);
    p->set(PState::E, PEvent::Replace, PState::I, PAction::PutClean);
    p->set(PState::O, PEvent::Replace, PState::I, PAction::PutDirty);
    p->set(PState::M, PEvent::Replace, PState::I, PAction::PutDirty);
    return p;
}

/**
 * The rows plain MESI and Dragon share: no Owned state, so a dirty
 * owner serving a read hands the line back and downgrades to S.
 */
Proto
mesiFamily(std::string name, std::string desc)
{
    auto p = std::make_unique<CoherenceProtocol>(std::move(name),
                                                 std::move(desc));
    p->set(PState::I, PEvent::Load, PState::S, PAction::IssueGetS);
    for (PState s : {PState::S, PState::E, PState::M})
        p->set(s, PEvent::Load, s, PAction::Hit);

    p->set(PState::E, PEvent::Store, PState::M, PAction::Hit);
    p->set(PState::M, PEvent::Store, PState::M, PAction::Hit);

    p->set(PState::S, PEvent::FwdGetS, PState::S, PAction::SendData);
    p->set(PState::E, PEvent::FwdGetS, PState::S, PAction::SendData);
    p->set(PState::M, PEvent::FwdGetS, PState::S, PAction::SendData);

    for (PState s : {PState::S, PState::E, PState::M}) {
        p->set(s, PEvent::FwdGetX, PState::I, PAction::SendData);
        p->set(s, PEvent::Inv, PState::I, PAction::SendData);
    }

    p->set(PState::S, PEvent::Replace, PState::I, PAction::PutShared);
    p->set(PState::E, PEvent::Replace, PState::I, PAction::PutClean);
    p->set(PState::M, PEvent::Replace, PState::I, PAction::PutDirty);
    return p;
}

/** Plain MESI: no Owned state; the home L2 slice absorbs the dirty
 *  line a downgraded owner hands back. */
Proto
mesi(std::string name, std::string desc)
{
    Proto p = mesiFamily(std::move(name), std::move(desc));
    p->set(PState::I, PEvent::Store, PState::M, PAction::IssueGetX);
    p->set(PState::S, PEvent::Store, PState::M, PAction::IssueGetX);
    return p;
}

/** Dragon-style write-update protocol (directory-ordered). */
Proto
dragon(std::string name, std::string desc)
{
    Proto p = mesiFamily(std::move(name), std::move(desc));
    // Stores to shared (or untracked) lines ship the word to the
    // home slice; exclusive holders write locally as usual. The home
    // slice answers DataM (ownership grant) when nobody else caches
    // the line, or UpdData after fanning updates out to the sharers.
    p->set(PState::I, PEvent::Store, PState::M, PAction::IssueUpdX);
    p->set(PState::S, PEvent::Store, PState::S, PAction::IssueUpdX);
    // Sharers overwrite their copy with the pushed line.
    p->set(PState::S, PEvent::Update, PState::S, PAction::Apply);
    return p;
}

} // namespace

ProtocolFactory &
ProtocolFactory::global()
{
    static ProtocolFactory f = [] {
        ProtocolFactory g;
        g.add(moesi(defaultName(),
                    "MOESI directory with owner-forwarding; the "
                    "paper's hybrid machine (default)"));
        g.add(moesi("moesi", "MOESI directory with owner-forwarding "
                             "(alias of spm-hybrid)"));
        g.add(mesi("mesi", "plain MESI: dirty owner-forwards downgrade "
                           "to S and write through to the L2 slice"));
        g.add(dragon("dragon", "Dragon-style write-update: stores to "
                               "shared lines fan updates out to the "
                               "sharers"));
        return g;
    }();
    return f;
}

const std::string &
ProtocolFactory::defaultName()
{
    static const std::string name = "spm-hybrid";
    return name;
}

const CoherenceProtocol &
ProtocolFactory::defaultProtocol()
{
    return global().get(defaultName());
}

void
ProtocolFactory::add(std::unique_ptr<CoherenceProtocol> proto)
{
    if (!proto)
        fatal("ProtocolFactory: null protocol");
    const std::string name = proto->name();
    if (name.empty())
        fatal("ProtocolFactory: protocol needs a name");
    if (!protos.emplace(name, std::move(proto)).second)
        fatal("ProtocolFactory: duplicate protocol '" + name + "'");
}

bool
ProtocolFactory::contains(const std::string &name) const
{
    return protos.count(name) != 0;
}

const CoherenceProtocol *
ProtocolFactory::find(const std::string &name) const
{
    auto it = protos.find(name);
    return it == protos.end() ? nullptr : it->second.get();
}

const CoherenceProtocol &
ProtocolFactory::get(const std::string &name) const
{
    if (const CoherenceProtocol *p = find(name))
        return *p;
    fatal("unknown protocol '" + name + "'; known protocols: " +
          namesJoined());
}

std::vector<std::string>
ProtocolFactory::names() const
{
    std::vector<std::string> out;
    out.reserve(protos.size());
    for (const auto &kv : protos)
        out.push_back(kv.first);
    return out;
}

std::string
ProtocolFactory::namesJoined() const
{
    std::string out;
    for (const auto &kv : protos) {
        if (!out.empty())
            out += ", ";
        out += kv.first;
    }
    return out;
}

} // namespace spmcoh
