#include "fuzz/scenario.hpp"

#include <cstdio>
#include <sstream>

#include "ff/nonbonded_tiled.hpp"
#include "util/random.hpp"

namespace scalemd {

const char* lb_strategy_name(LbStrategyKind kind) {
  switch (kind) {
    case LbStrategyKind::kNone:         return "none";
    case LbStrategyKind::kRandom:       return "random";
    case LbStrategyKind::kGreedyNoComm: return "greedy-nocomm";
    case LbStrategyKind::kGreedy:       return "greedy";
    case LbStrategyKind::kGreedyRefine: return "greedy-refine";
    case LbStrategyKind::kDiffusion:    return "diffusion";
  }
  return "unknown";
}

namespace {

bool lb_from_name(const std::string& name, LbStrategyKind& out) {
  for (LbStrategyKind k :
       {LbStrategyKind::kNone, LbStrategyKind::kRandom,
        LbStrategyKind::kGreedyNoComm, LbStrategyKind::kGreedy,
        LbStrategyKind::kGreedyRefine, LbStrategyKind::kDiffusion}) {
    if (name == lb_strategy_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool kind_from_name(const std::string& name, TestSystemKind& out) {
  for (TestSystemKind k :
       {TestSystemKind::kWaterBox, TestSystemKind::kSolvatedChain,
        TestSystemKind::kMembranePatch}) {
    if (name == test_system_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

ScenarioSpec generate_scenario(std::uint64_t master_seed, int index) {
  Rng rng(Rng::derive(master_seed, static_cast<std::uint64_t>(index) + 1));
  ScenarioSpec s;
  s.seed = rng.split("system").seed();

  constexpr TestSystemKind kKinds[] = {TestSystemKind::kWaterBox,
                                       TestSystemKind::kSolvatedChain,
                                       TestSystemKind::kMembranePatch};
  s.kind = kKinds[rng.uniform_index(3)];
  s.box = 10.0 + rng.uniform() * 8.0;  // [10, 18): 2-4 patches per side
  s.chain_beads = 8 + static_cast<int>(rng.uniform_index(25));

  constexpr int kPes[] = {2, 4, 6, 8};
  s.num_pes = kPes[rng.uniform_index(4)];
  constexpr int kThreads[] = {1, 2, 4};
  s.threads = kThreads[rng.uniform_index(3)];

  constexpr LbStrategyKind kLbs[] = {
      LbStrategyKind::kNone,   LbStrategyKind::kRandom,
      LbStrategyKind::kGreedyNoComm, LbStrategyKind::kGreedy,
      LbStrategyKind::kGreedyRefine, LbStrategyKind::kDiffusion};
  s.lb = kLbs[rng.uniform_index(6)];

  // kTiledThreads is excluded: it is a sequential-engine option that the
  // ParallelSim constructor rejects. validate_scenario enforces the same
  // rule.
  constexpr NonbondedKernel kKernels[] = {NonbondedKernel::kScalar,
                                          NonbondedKernel::kTiled};
  s.kernel = kKernels[rng.uniform_index(2)];

  s.dt_fs = rng.uniform() < 0.5 ? 0.5 : 1.0;
  s.cycles = 1 + static_cast<int>(rng.uniform_index(3));
  s.steps = 1 + static_cast<int>(rng.uniform_index(3));

  // About half the cases get message chaos; PE failures additionally need
  // enough survivors for evacuation, and always a checkpoint to restart from.
  if (rng.uniform() < 0.5) {
    s.drop_prob = rng.uniform() * 0.03;
    s.dup_prob = rng.uniform() * 0.02;
    s.delay_prob = rng.uniform() * 0.06;
    s.delay_max = s.delay_prob > 0.0 ? 1e-4 + rng.uniform() * 2e-4 : 0.0;
  }
  if (s.num_pes >= 4 && rng.uniform() < 0.35) {
    ScenarioFailure f;
    f.pe = static_cast<int>(rng.uniform_index(static_cast<std::size_t>(s.num_pes)));
    f.at_frac = 0.2 + rng.uniform() * 0.6;
    s.failures.push_back(f);
  }
  if (s.has_faults()) {
    s.checkpoint_every =
        s.failures.empty() ? static_cast<int>(rng.uniform_index(3)) : 1;
  }

  // A quarter of the campaign also crosses the forked-process backend.
  // Drawn last so the axis does not reshuffle the draws above (existing
  // repro seeds keep their system/fault shape).
  if (rng.uniform() < 0.25) {
    constexpr int kWorkers[] = {1, 2, 3};
    s.process_workers = kWorkers[rng.uniform_index(3)];
  }

  // A fifth of the campaign also crosses the serve layer: the spec becomes a
  // small replica batch scheduled on a few workers with forced preemption.
  // Drawn after the process axis, same rationale: older repro seeds keep
  // their shape.
  if (rng.uniform() < 0.2) {
    s.serve_jobs = 2 + static_cast<int>(rng.uniform_index(3));
    s.serve_workers = 1 + static_cast<int>(rng.uniform_index(3));
    s.serve_preempt_every = static_cast<int>(rng.uniform_index(3));
  }

  // Roughly a third of the campaign runs with full electrostatics, crossing
  // the parallel-PME pipeline with whatever faults/backends the draws above
  // produced. Drawn last, same rationale: older repro seeds keep their shape.
  if (rng.uniform() < 0.3) {
    s.full_elec = true;
    s.pme_slabs = 1 + static_cast<int>(rng.uniform_index(4));
    if (rng.uniform() < 0.25) s.pme_dedicated = 1;
  }
  return s;
}

std::string validate_scenario(const ScenarioSpec& s) {
  // Double ranges are written as negated conjunctions so a NaN smuggled in
  // through a parsed file fails the check instead of slipping past both
  // one-sided comparisons.
  if (!(s.box >= 8.0 && s.box <= 40.0)) return "box must be in [8, 40] A";
  if (s.chain_beads < 4 || s.chain_beads > 200) {
    return "chain-beads must be in [4, 200]";
  }
  if (s.num_pes < 1 || s.num_pes > 64) return "pes must be in [1, 64]";
  if (s.kernel == NonbondedKernel::kTiledThreads) {
    return "kernel tiled+threads is a sequential-engine option; the runtime "
           "takes scalar or tiled";
  }
  if (s.threads < 1 || s.threads > 16) return "threads must be in [1, 16]";
  if (s.process_workers < 0 || s.process_workers > 8) {
    return "process-workers must be in [0, 8]";
  }
  if (!(s.dt_fs > 0.0 && s.dt_fs <= 2.0)) return "dt must be in (0, 2] fs";
  if (s.cycles < 1 || s.cycles > 10) return "cycles must be in [1, 10]";
  if (s.steps < 1 || s.steps > 10) return "steps must be in [1, 10]";
  if (!(s.drop_prob >= 0.0 && s.drop_prob <= 0.2)) {
    return "drop must be in [0, 0.2]";
  }
  if (!(s.dup_prob >= 0.0 && s.dup_prob <= 0.2)) {
    return "dup must be in [0, 0.2]";
  }
  if (!(s.delay_prob >= 0.0 && s.delay_prob <= 0.2)) {
    return "delay probability must be in [0, 0.2]";
  }
  if (!(s.delay_max >= 0.0 && s.delay_max <= 1.0)) {
    return "delay max must be in [0, 1] s";
  }
  if (s.checkpoint_every < 0 || s.checkpoint_every > 10) {
    return "checkpoint must be in [0, 10]";
  }
  if (s.serve_jobs != 0 && (s.serve_jobs < 2 || s.serve_jobs > 8)) {
    return "serve-jobs must be 0 or in [2, 8]";
  }
  if (s.serve_workers < 1 || s.serve_workers > 8) {
    return "serve-workers must be in [1, 8]";
  }
  if (s.serve_preempt_every < 0 || s.serve_preempt_every > 8) {
    return "serve-preempt must be in [0, 8]";
  }
  if (s.pme_slabs < 1 || s.pme_slabs > 8) {
    return "pme-slabs must be in [1, 8]";
  }
  if (s.pme_dedicated < 0 || s.pme_dedicated > s.num_pes) {
    return "pme-dedicated must be in [0, pes]";
  }
  for (const ScenarioFailure& f : s.failures) {
    if (f.pe < 0 || f.pe >= s.num_pes) return "failure pe out of range";
    if (!(f.at_frac > 0.0 && f.at_frac < 1.0)) {
      return "failure time fraction must be in (0, 1)";
    }
  }
  if (!s.failures.empty()) {
    if (s.num_pes < 4) return "failures need at least 4 pes to evacuate onto";
    if (s.checkpoint_every < 1) return "failures need checkpoint >= 1";
  }
  return "";
}

std::string serialize_scenario(const ScenarioSpec& s) {
  std::string out;
  const auto line = [&out](const std::string& text) {
    out += text;
    out += '\n';
  };
  line("seed " + std::to_string(s.seed));
  line(std::string("system ") + test_system_kind_name(s.kind));
  line("box " + g17(s.box));
  line("chain-beads " + std::to_string(s.chain_beads));
  line("pes " + std::to_string(s.num_pes));
  line("threads " + std::to_string(s.threads));
  if (s.process_workers > 0) {
    line("process-workers " + std::to_string(s.process_workers));
  }
  line(std::string("lb ") + lb_strategy_name(s.lb));
  line(std::string("kernel ") + kernel_name(s.kernel));
  line("dt " + g17(s.dt_fs));
  line("cycles " + std::to_string(s.cycles));
  line("steps " + std::to_string(s.steps));
  if (s.has_message_faults()) {
    line("drop " + g17(s.drop_prob));
    line("dup " + g17(s.dup_prob));
    line("delay " + g17(s.delay_prob) + " " + g17(s.delay_max));
  }
  for (const ScenarioFailure& f : s.failures) {
    line("fail " + std::to_string(f.pe) + " " + g17(f.at_frac));
  }
  if (s.checkpoint_every > 0) {
    line("checkpoint " + std::to_string(s.checkpoint_every));
  }
  if (s.serve_jobs > 0) {
    line("serve-jobs " + std::to_string(s.serve_jobs));
    line("serve-workers " + std::to_string(s.serve_workers));
    line("serve-preempt " + std::to_string(s.serve_preempt_every));
  }
  if (s.full_elec) line("full-elec 1");
  if (s.pme_slabs != 4) line("pme-slabs " + std::to_string(s.pme_slabs));
  if (s.pme_dedicated != 0) {
    line("pme-dedicated " + std::to_string(s.pme_dedicated));
  }
  if (s.inject_defect) line("defect arrival-order");
  return out;
}

DirectiveStatus apply_scenario_directive(const std::string& raw_in,
                                         ScenarioSpec& out,
                                         std::string& reason) {
  std::string raw = raw_in;
  const std::size_t hash = raw.find('#');
  if (hash != std::string::npos) raw.erase(hash);
  std::istringstream line(raw);
  std::string key;
  if (!(line >> key)) return DirectiveStatus::kApplied;

  bool bad = false;
  const auto fail = [&](std::string why) {
    reason = std::move(why);
    bad = true;
    return false;
  };
  const auto want_number = [&](const char* what, double& value) {
    if (!(line >> value)) {
      return fail(std::string("'") + key + "' needs a numeric " + what);
    }
    return true;
  };
  const auto want_count = [&](const char* what, int& value) {
    double v = 0.0;
    if (!want_number(what, v)) return false;
    value = static_cast<int>(v);
    return true;
  };
  const auto want_word = [&](const char* what, std::string& value) {
    if (!(line >> value)) {
      return fail(std::string("'") + key + "' needs a " + what);
    }
    return true;
  };

  if (key == "seed") {
    // Read as an integer, not via want_number: a 64-bit seed does not
    // round-trip through a double.
    std::uint64_t v = 0;
    if (!(line >> v)) {
      fail("'seed' needs a non-negative integer");
    } else {
      out.seed = v;
    }
  } else if (key == "system") {
    std::string name;
    if (want_word("system name", name) && !kind_from_name(name, out.kind)) {
      fail("unknown system '" + name + "'");
    }
  } else if (key == "box") {
    want_number("edge length", out.box);
  } else if (key == "chain-beads") {
    want_count("count", out.chain_beads);
  } else if (key == "pes") {
    want_count("count", out.num_pes);
  } else if (key == "threads") {
    want_count("count", out.threads);
  } else if (key == "process-workers") {
    want_count("count", out.process_workers);
  } else if (key == "serve-jobs") {
    want_count("count", out.serve_jobs);
  } else if (key == "serve-workers") {
    want_count("count", out.serve_workers);
  } else if (key == "serve-preempt") {
    want_count("cadence", out.serve_preempt_every);
  } else if (key == "lb") {
    std::string name;
    if (want_word("strategy name", name) && !lb_from_name(name, out.lb)) {
      fail("unknown lb strategy '" + name + "'");
    }
  } else if (key == "kernel") {
    std::string name;
    if (want_word("kernel name", name) && !kernel_from_name(name, out.kernel)) {
      fail("unknown kernel '" + name + "'");
    }
  } else if (key == "dt") {
    want_number("femtoseconds", out.dt_fs);
  } else if (key == "cycles") {
    want_count("count", out.cycles);
  } else if (key == "steps") {
    want_count("count", out.steps);
  } else if (key == "drop" || key == "dup") {
    double p = 0.0;
    if (want_number("probability", p)) {
      (key == "drop" ? out.drop_prob : out.dup_prob) = p;
    }
  } else if (key == "delay") {
    if (want_number("probability", out.delay_prob)) {
      want_number("max seconds", out.delay_max);
    }
  } else if (key == "fail") {
    double pe = 0.0, frac = 0.0;
    if (want_number("pe", pe) && want_number("time fraction", frac)) {
      out.failures.push_back({static_cast<int>(pe), frac});
    }
  } else if (key == "checkpoint") {
    want_count("cadence", out.checkpoint_every);
  } else if (key == "full-elec") {
    int v = 0;
    if (want_count("0/1 flag", v)) out.full_elec = v != 0;
  } else if (key == "pme-slabs") {
    want_count("count", out.pme_slabs);
  } else if (key == "pme-dedicated") {
    want_count("count", out.pme_dedicated);
  } else if (key == "defect") {
    std::string name;
    if (want_word("defect name", name)) {
      if (name != "arrival-order") {
        fail("unknown defect '" + name + "'");
      } else {
        out.inject_defect = true;
      }
    }
  } else {
    reason = key;
    return DirectiveStatus::kUnknownKey;
  }
  return bad ? DirectiveStatus::kBadValue : DirectiveStatus::kApplied;
}

bool parse_scenario(const std::string& text, const std::string& file,
                    ScenarioSpec& spec, FaultPlanParseError& error) {
  ScenarioSpec out;
  out.lb = LbStrategyKind::kNone;  // schema default, as in a fresh spec
  std::istringstream stream(text);
  std::string raw;
  int lineno = 0;

  const auto fail = [&](int line, std::string reason) {
    error.file = file;
    error.line = line;
    error.reason = std::move(reason);
    return false;
  };

  while (std::getline(stream, raw)) {
    ++lineno;
    std::string reason;
    switch (apply_scenario_directive(raw, out, reason)) {
      case DirectiveStatus::kApplied:
        break;
      case DirectiveStatus::kBadValue:
        return fail(lineno, reason);
      case DirectiveStatus::kUnknownKey:
        // `expect <oracle>` is consumed by the repro replayer (fuzzer.cpp);
        // transparent here so a repro file is itself a parseable scenario.
        if (reason != "expect") {
          return fail(lineno, "unknown directive '" + reason + "'");
        }
        break;
    }
  }

  const std::string invalid = validate_scenario(out);
  if (!invalid.empty()) return fail(lineno, invalid);
  spec = out;
  return true;
}

}  // namespace scalemd
