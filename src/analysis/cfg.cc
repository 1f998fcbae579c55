#include "analysis/cfg.hh"

#include <algorithm>

namespace drsim {
namespace analysis {

namespace {

/** Last instruction of a non-empty block decides its successors. */
const Instruction &
terminator(const BasicBlock &bb)
{
    return bb.insts.back();
}

Finding
structuralFinding(const char *rule, const Program &prog, int block,
                  int offset, std::string message)
{
    Finding f;
    f.rule = rule;
    f.severity = Severity::Error;
    f.block = block;
    f.offset = offset;
    if (block >= 0 && offset >= 0)
        f.pc = prog.pcOf({block, offset});
    f.message = std::move(message);
    return f;
}

} // namespace

ProgramCfg::ProgramCfg(const Program &program) : prog_(program)
{
    const auto &blocks = prog_.blocks();
    nodes_.resize(blocks.size());

    const CodeLoc entry_loc =
        blocks.empty() ? CodeLoc{}
                       : prog_.blockEntryResolved(prog_.entry().block);
    if (!entry_loc.valid()) {
        structural_.push_back(structuralFinding(
            rules::kEmptyProgram, prog_, -1, -1,
            "program contains no instructions"));
        return;
    }
    entry_ = entry_loc.block;
    valid_ = true;

    // Layout fallthroughs (next non-empty block).
    int next_nonempty = -1;
    for (int b = int(blocks.size()) - 1; b >= 0; --b) {
        nodes_[std::size_t(b)].fallthrough = next_nonempty;
        if (!blocks[std::size_t(b)].insts.empty())
            next_nonempty = b;
    }

    // Pass 1: collect call-return points (the block a Ret returns to
    // is the fallthrough of some Jsr).
    std::vector<int> ret_targets;
    for (int b = 0; b < int(blocks.size()); ++b) {
        const auto &bb = blocks[std::size_t(b)];
        if (bb.insts.empty())
            continue;
        if (terminator(bb).op == Opcode::Jsr) {
            const int ft = nodes_[std::size_t(b)].fallthrough;
            if (ft >= 0)
                ret_targets.push_back(ft);
        }
    }

    // Pass 2: edges + structural checks.
    for (int b = 0; b < int(blocks.size()); ++b) {
        const auto &bb = blocks[std::size_t(b)];
        if (bb.insts.empty())
            continue;
        const Instruction &last = terminator(bb);
        const int last_off = int(bb.insts.size()) - 1;
        const int ft = nodes_[std::size_t(b)].fallthrough;

        const auto resolveTarget = [&]() -> int {
            const CodeLoc t = prog_.blockEntryResolved(last.target);
            if (!t.valid()) {
                structural_.push_back(structuralFinding(
                    rules::kInvalidTarget, prog_, b, last_off,
                    "branch target (block " +
                        std::to_string(last.target) +
                        ") is out of range or contains no "
                        "instructions"));
                return -1;
            }
            return t.block;
        };
        const auto fallthroughEdge = [&](const char *what) {
            if (ft >= 0) {
                addEdge(b, ft);
            } else {
                structural_.push_back(structuralFinding(
                    rules::kFallOffEnd, prog_, b, last_off,
                    std::string(what) +
                        " falls off the end of the code segment"));
            }
        };

        switch (last.op) {
          case Opcode::Halt:
            break;
          case Opcode::Br:
          case Opcode::Jsr: {
            const int t = resolveTarget();
            if (t >= 0)
                addEdge(b, t);
            if (last.op == Opcode::Jsr && ft < 0) {
                structural_.push_back(structuralFinding(
                    rules::kFallOffEnd, prog_, b, last_off,
                    "call has no instruction to return to"));
            }
            break;
          }
          case Opcode::Ret:
            // No call site: the target is unknown and the Ret is
            // exit-like (computeReachability seeds canExit from it).
            for (const int t : ret_targets)
                addEdge(b, t);
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Fbeq:
          case Opcode::Fbne: {
            const int t = resolveTarget();
            if (t >= 0)
                addEdge(b, t);
            fallthroughEdge("not-taken path of conditional branch");
            break;
          }
          default:
            fallthroughEdge("straight-line block");
            break;
        }
    }

    computeReachability();
    computeLoops();
}

void
ProgramCfg::addEdge(int from, int to)
{
    auto &succs = nodes_[std::size_t(from)].succs;
    if (std::find(succs.begin(), succs.end(), to) != succs.end())
        return; // dedupe (e.g. cond branch whose target == fallthrough)
    succs.push_back(to);
    nodes_[std::size_t(to)].preds.push_back(from);
}

void
ProgramCfg::computeReachability()
{
    // Forward reachability from the entry + reverse postorder.
    std::vector<int> stack = {entry_};
    std::vector<std::uint8_t> state(nodes_.size(), 0); // 0/1/2
    rpo_.clear();
    // Iterative DFS producing a postorder.
    while (!stack.empty()) {
        const int b = stack.back();
        if (state[std::size_t(b)] == 0) {
            state[std::size_t(b)] = 1;
            nodes_[std::size_t(b)].reachable = true;
            for (const int s : nodes_[std::size_t(b)].succs)
                if (state[std::size_t(s)] == 0)
                    stack.push_back(s);
        } else {
            stack.pop_back();
            if (state[std::size_t(b)] == 1) {
                state[std::size_t(b)] = 2;
                rpo_.push_back(b);
            }
        }
    }
    std::reverse(rpo_.begin(), rpo_.end());
    for (std::size_t i = 0; i < rpo_.size(); ++i)
        nodes_[std::size_t(rpo_[i])].rpoIndex = int(i);

    // Backward reachability from exit nodes: a block "can exit" when
    // some path from it reaches Halt (or an exit-like Ret).
    std::vector<int> worklist;
    const auto &blocks = prog_.blocks();
    bool have_call_sites = false;
    for (const auto &bb : blocks)
        if (!bb.insts.empty() && terminator(bb).op == Opcode::Jsr)
            have_call_sites = true;
    for (int b = 0; b < int(blocks.size()); ++b) {
        const auto &bb = blocks[std::size_t(b)];
        if (bb.insts.empty())
            continue;
        const Opcode op = terminator(bb).op;
        const bool exit_like =
            op == Opcode::Halt ||
            (op == Opcode::Ret && !have_call_sites);
        if (exit_like) {
            nodes_[std::size_t(b)].canExit = true;
            worklist.push_back(b);
        }
    }
    while (!worklist.empty()) {
        const int b = worklist.back();
        worklist.pop_back();
        for (const int p : nodes_[std::size_t(b)].preds) {
            if (!nodes_[std::size_t(p)].canExit) {
                nodes_[std::size_t(p)].canExit = true;
                worklist.push_back(p);
            }
        }
    }
}

void
ProgramCfg::computeLoops()
{
    // Back edges via DFS (edge u->v with v on the DFS stack), then
    // natural-loop bodies: for each header v, {v} plus everything
    // that reaches a tail u of some u->v without passing through v.
    // Nesting depth = number of loop bodies containing the block.
    const std::size_t n = nodes_.size();
    std::vector<std::uint8_t> visited(n, 0), on_stack(n, 0);
    std::vector<std::pair<int, int>> back_edges; // (tail, header)

    struct Frame { int block; std::size_t next; };
    std::vector<Frame> stack = {{entry_, 0}};
    visited[std::size_t(entry_)] = 1;
    on_stack[std::size_t(entry_)] = 1;
    while (!stack.empty()) {
        Frame &f = stack.back();
        const auto &succs = nodes_[std::size_t(f.block)].succs;
        if (f.next < succs.size()) {
            const int s = succs[f.next++];
            if (on_stack[std::size_t(s)]) {
                back_edges.emplace_back(f.block, s);
            } else if (!visited[std::size_t(s)]) {
                visited[std::size_t(s)] = 1;
                on_stack[std::size_t(s)] = 1;
                stack.push_back({s, 0});
            }
        } else {
            on_stack[std::size_t(f.block)] = 0;
            stack.pop_back();
        }
    }

    std::vector<int> headers;
    for (const auto &edge : back_edges) {
        if (std::find(headers.begin(), headers.end(), edge.second) ==
            headers.end()) {
            headers.push_back(edge.second);
        }
    }
    std::sort(headers.begin(), headers.end());

    for (const int header : headers) {
        Loop loop;
        loop.header = header;
        // Reverse flood from the tails, stopping at the header.
        std::vector<std::uint8_t> in_body(n, 0);
        in_body[std::size_t(header)] = 1;
        std::vector<int> work;
        for (const auto &[tail, h] : back_edges) {
            if (h != header)
                continue;
            loop.tails.push_back(tail);
            if (!in_body[std::size_t(tail)]) {
                in_body[std::size_t(tail)] = 1;
                work.push_back(tail);
            }
        }
        while (!work.empty()) {
            const int b = work.back();
            work.pop_back();
            for (const int p : nodes_[std::size_t(b)].preds) {
                if (!nodes_[std::size_t(p)].reachable ||
                    in_body[std::size_t(p)]) {
                    continue;
                }
                in_body[std::size_t(p)] = 1;
                work.push_back(p);
            }
        }
        for (std::size_t b = 0; b < n; ++b) {
            if (in_body[b]) {
                loop.body.push_back(int(b));
                ++nodes_[b].loopDepth;
            }
        }
        loops_.push_back(std::move(loop));
    }
}

} // namespace analysis
} // namespace drsim
