/**
 * @file
 * Pluggable coherence-protocol interface (ROADMAP "protocol arena").
 *
 * A CoherenceProtocol is a table-driven state machine: the cache
 * controllers look every transition up as (state, event) -> {next
 * state, actions} instead of hard-coding one protocol's casuistic.
 * The table is the only protocol knowledge: the directory's policy
 * hooks (does a dirty owner keep the line in O when a reader
 * arrives? are stores to shared lines update-based?) are read from
 * it. The SPM guarded-access dispatch of Fig. 5 is expressed as a
 * second, tiny table so the CohController routes its casuistic
 * through the same object.
 *
 * The built-in tables (the default MOESI directory machine that
 * matches the paper's hybrid system, plain MESI without
 * owner-forwarding, and an update-based Dragon variant) are built
 * and registered by ProtocolFactory.
 */

#ifndef SPMCOH_PROTOCOLS_COHERENCEPROTOCOL_HH
#define SPMCOH_PROTOCOLS_COHERENCEPROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace spmcoh
{

/** Protocol-level stable states (I = not present in the cache). */
enum class PState : std::uint8_t { I, S, E, O, M };
constexpr std::size_t numPStates = 5;

/** Events a cache-side controller consults the table for. */
enum class PEvent : std::uint8_t
{
    Load,     ///< core load to the line
    Store,    ///< core store to the line
    FwdGetS,  ///< directory forwards a remote read to us
    FwdGetX,  ///< directory forwards a remote write to us
    Inv,      ///< directory invalidates our copy
    Update,   ///< directory pushes a written line (update-based)
    Replace,  ///< we evict the line
};
constexpr std::size_t numPEvents = 7;

/** Actions attached to a transition (at most two per edge). */
enum class PAction : std::uint8_t
{
    None,
    Hit,        ///< access completes locally
    IssueGetS,  ///< request the line for reading
    IssueGetX,  ///< request write ownership (invalidation-based)
    IssueUpdX,  ///< ship the store to the directory (update-based)
    SendData,   ///< hand our copy back through the directory
    Apply,      ///< overwrite our copy with the pushed line
    PutDirty,   ///< replacement writes the line back (PutM)
    PutClean,   ///< replacement notifies a clean exclusive (PutE)
    PutShared,  ///< replacement notifies a clean shared (PutS)
};

/** One edge of the protocol state machine. */
struct Transition
{
    bool legal = false;
    PState next = PState::I;
    PAction actions[2] = {PAction::None, PAction::None};

    bool
    has(PAction a) const
    {
        return actions[0] == a || actions[1] == a;
    }
};

const char *pstateName(PState s);
const char *peventName(PEvent e);

/**
 * A coherence protocol: one transition table. The cache controllers
 * look every transition up in it, and the directory's policy hooks
 * are read from it too. Instances are immutable once registered and
 * shared by every controller in a System, so all queries are const
 * and thread-safe.
 */
class CoherenceProtocol
{
  public:
    CoherenceProtocol(std::string name, std::string description)
        : nm(std::move(name)), desc(std::move(description))
    {}

    const std::string &name() const { return nm; }
    const std::string &description() const { return desc; }

    /** The (state, event) edge; fatal when the edge is illegal. */
    const Transition &
    transition(PState s, PEvent e) const
    {
        const Transition &t = edge(s, e);
        if (!t.legal)
            illegal(s, e);
        return t;
    }

    /** Install one edge (builder-side, before registration). */
    void
    set(PState s, PEvent e, PState next, PAction a0,
        PAction a1 = PAction::None)
    {
        Transition &t =
            tbl[static_cast<std::size_t>(s)][static_cast<std::size_t>(e)];
        t.legal = true;
        t.next = next;
        t.actions[0] = a0;
        t.actions[1] = a1;
    }

    // ------------------------ directory policy hooks (from the table)

    /**
     * MOESI owner-forwarding: a dirty owner answering a GetS keeps
     * the line, i.e. the (M, FwdGetS) edge leads to O (Excl -> Owned
     * at the directory). Protocols without an Owned state downgrade
     * the owner to S and push the dirty data into the L2 slice
     * instead.
     */
    bool
    ownerKeepsDirtyOnGetS() const
    {
        const Transition &t = edge(PState::M, PEvent::FwdGetS);
        return t.legal && t.next == PState::O;
    }

    /**
     * Update-based writes (Dragon): a store to a shared line issues
     * UpdX, so the directory applies it and pushes the line to the
     * sharers instead of invalidating them.
     */
    bool
    updateBased() const
    {
        const Transition &t = edge(PState::S, PEvent::Store);
        return t.legal && t.has(PAction::IssueUpdX);
    }

  private:
    const Transition &
    edge(PState s, PEvent e) const
    {
        return tbl[static_cast<std::size_t>(s)]
                  [static_cast<std::size_t>(e)];
    }

    /** Report an illegal edge (out of line: keeps lookups lean). */
    [[noreturn]] void illegal(PState s, PEvent e) const;

    std::string nm;
    std::string desc;
    Transition tbl[numPStates][numPEvents];
};

} // namespace spmcoh

#endif // SPMCOH_PROTOCOLS_COHERENCEPROTOCOL_HH
