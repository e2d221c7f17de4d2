#include "tests/nic/reference_steering.h"

namespace fld::nic::reference {

bool
matches(const FlowMatch& m, const FlowFields& f)
{
    if (m.in_vport && *m.in_vport != f.in_vport)
        return false;
    if (m.ethertype && *m.ethertype != f.ethertype)
        return false;
    if (m.ip_proto && *m.ip_proto != f.ip_proto)
        return false;
    if (m.src_ip && *m.src_ip != f.src_ip)
        return false;
    if (m.dst_ip && *m.dst_ip != f.dst_ip)
        return false;
    if (m.sport && (!f.has_l4 || *m.sport != f.sport))
        return false;
    if (m.dport && (!f.has_l4 || *m.dport != f.dport))
        return false;
    if (m.is_fragment && *m.is_fragment != f.is_fragment)
        return false;
    if (m.vni && *m.vni != f.vni)
        return false;
    if (m.flow_tag && *m.flow_tag != f.flow_tag)
        return false;
    return true;
}

const FlowRule*
lookup(const FlowTables& flows, uint32_t table, const FlowFields& f)
{
    auto it = flows.all_tables().find(table);
    if (it == flows.all_tables().end())
        return nullptr;
    // FlowTables keeps each table sorted by descending priority,
    // stable in installation order.
    for (const FlowRule& rule : it->second) {
        if (matches(rule.match, f))
            return &rule;
    }
    return nullptr;
}

void
nat_apply_fields(FlowFields& f, const Action& act)
{
    if (act.arg0 & kNatDstIp)
        f.dst_ip = act.arg1;
    if (act.arg0 & kNatSrcIp)
        f.src_ip = act.arg3;
    if (f.has_l4) {
        if (act.arg0 & kNatDstPort)
            f.dport = uint16_t(act.arg2 & 0xffff);
        if (act.arg0 & kNatSrcPort)
            f.sport = uint16_t(act.arg2 >> 16);
    }
}

Executor::Executor(const PipelineConfig& cfg) : program_(cfg)
{
    for (const VipPoolConfig& p : cfg.pools)
        pools_[p.id] = p.backends;
}

uint64_t
Executor::counter(uint32_t counter_id) const
{
    auto it = counters_.find(counter_id);
    return it == counters_.end() ? 0 : it->second;
}

PipelineExecResult
Executor::execute(FlowFields f, uint32_t start_table, uint64_t bytes)
{
    using Kind = PipelineExecResult::Kind;
    PipelineExecResult r;
    uint32_t table = start_table;
    auto finish = [&](Kind kind, uint32_t dest = 0) {
        r.kind = kind;
        r.dest = dest;
        r.final_tag = f.flow_tag;
        return r;
    };

    for (int depth = 0; depth < Pipeline::kMaxDepth; ++depth) {
        r.tables_visited++;
        const Action* acts = nullptr;
        size_t count = 0;
        if (const CompiledEntry* e = program_.lookup(table, f)) {
            acts = program_.actions(*e);
            count = e->action_count;
        } else {
            program_.default_actions(table, acts, count);
            if (count == 0)
                return finish(Kind::Miss);
        }

        bool had_goto = false;
        for (size_t i = 0; i < count; ++i) {
            const Action& act = acts[i];
            switch (act.type) {
              case ActionType::SetTag:
                f.flow_tag = act.arg0;
                break;
              case ActionType::Count:
                counters_[act.arg0] += bytes;
                break;
              case ActionType::VxlanDecap:
              case ActionType::VxlanEncap:
              case ActionType::Meter:
                break;
              case ActionType::Goto:
                table = act.arg0;
                had_goto = true;
                break;
              case ActionType::ForwardVport:
                return finish(Kind::Vport, act.arg0);
              case ActionType::ForwardTir:
                return finish(Kind::Tir, act.arg0);
              case ActionType::ForwardQueue:
                return finish(Kind::Queue, act.arg0);
              case ActionType::SendToAccel:
                r.next_table = act.arg1;
                return finish(Kind::Accel, act.arg0);
              case ActionType::Drop:
                return finish(Kind::Drop);
              case ActionType::AclDeny:
                return finish(Kind::AclDeny, act.arg0);
              case ActionType::NatRewrite:
                nat_apply_fields(f, act);
                break;
              case ActionType::VipSelect: {
                auto pit = pools_.find(act.arg0);
                if (pit == pools_.end() || pit->second.empty())
                    return finish(Kind::Drop);
                f.dst_ip = select_vip_backend(pit->second, f);
                break;
              }
            }
        }
        if (!had_goto)
            return finish(Kind::NoTerminal);
    }
    return finish(Kind::DepthExceeded);
}

} // namespace fld::nic::reference
