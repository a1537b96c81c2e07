#include "svc/protocol.h"

#include "sim/redteam.h"
#include "sim/result_store.h"
#include "stats/json_archive.h"

namespace bh {

namespace {

/** JSON spelling of each workload slot kind. */
constexpr std::pair<WorkloadSlot::Kind, const char *> kSlotKinds[] = {
    {WorkloadSlot::Kind::kBenign, "benign"},
    {WorkloadSlot::Kind::kAttacker, "attacker"},
    {WorkloadSlot::Kind::kAdaptiveAttacker, "adaptive_attacker"},
};

const char *
slotKindName(WorkloadSlot::Kind kind)
{
    for (const auto &[k, name] : kSlotKinds)
        if (k == kind)
            return name;
    return "";
}

bool
slotKindFromName(const std::string &name, WorkloadSlot::Kind *out)
{
    for (const auto &[k, spelled] : kSlotKinds)
        if (name == spelled) {
            *out = k;
            return true;
        }
    return false;
}

} // namespace

template <class Ar, class Self>
void
ExperimentConfig::transfer(Ar &ar, Self &self)
{
    ar.object("mix", [&] {
        ar.str("name", self.mix.name);
        ar.str("pattern", self.mix.pattern);
        ar.array("slots", self.mix.slots, [](auto &a, auto &slot) {
            std::string kind = slotKindName(slot.kind);
            a.str("kind", kind);
            if constexpr (Ar::kLoading)
                a.check(slotKindFromName(kind, &slot.kind));
            a.str("app", slot.appName);
            a.object("attacker", [&] {
                a.u64("pattern", slot.attacker.pattern);
                a.check(slot.attacker.pattern <= AttackPattern::kHalfDouble);
                a.u64("aggressors", slot.attacker.numAggressors);
                a.u64("row_base", slot.attacker.rowBase);
                a.u64("row_spacing", slot.attacker.rowSpacing);
                a.u64("banks", slot.attacker.numBanks);
                a.u64("bubbles", slot.attacker.bubbles);
            });
            a.object("adaptive", [&] {
                a.u64("observe_every", slot.adaptive.observeEvery);
                a.u64("max_bubbles", slot.adaptive.maxBubbles);
                a.u64("rotation_stride", slot.adaptive.rotationStride);
                a.u64("calm_streak", slot.adaptive.calmStreak);
                a.u64("group_size", slot.adaptive.groupSize);
                a.u64("slot_index", slot.adaptive.slotIndex);
                a.u64("handoff_epoch", slot.adaptive.handoffEpoch);
            });
        });
    });
    // Enums travel by name; the decoder maps the name back.
    std::string mech = mitigationName(self.mechanism);
    ar.str("mechanism", mech);
    if constexpr (Ar::kLoading)
        ar.check(svc::mitigationFromName(mech, &self.mechanism));
    ar.u64("nrh", self.nRh);
    ar.b("breakhammer", self.breakHammer);
    ar.object("bh", [&] {
        ar.u64("window", self.bh.window);
        ar.d("th_threat", self.bh.thThreat);
        ar.d("th_outlier", self.bh.thOutlier);
        ar.u64("p_old_suspect", self.bh.pOldSuspect);
        ar.u64("p_new_suspect", self.bh.pNewSuspect);
        bool wta = self.bh.attribution == ScoreAttribution::kWinnerTakesAll;
        ar.b("winner_takes_all", wta);
        if constexpr (Ar::kLoading)
            self.bh.attribution = wta ? ScoreAttribution::kWinnerTakesAll
                                      : ScoreAttribution::kProportional;
        ar.b("single_counter_set", self.bh.singleCounterSet);
    });
    ar.u64("instructions", self.instructions);
    ar.b("oracle", self.oracle);
    ar.b("blunt_throttle", self.bluntThrottle);
    ar.u64("seed", self.seed);
    ar.u64("channels", self.channels);
    ar.u64("ranks", self.ranks);
    ar.object("sample", [&] {
        ar.u64("warmup", self.sample.warmup);
        ar.u64("measure", self.sample.measure);
        ar.u64("fast_forward", self.sample.fastForward);
    });
    ar.str("redteam", self.redteam);
    // Empty = canonical fixed attackers; anything else must be a
    // canonical strategy spec (the worker's runExperiment() aborts on
    // garbage, so reject it at the wire instead).
    if constexpr (Ar::kLoading) {
        RedteamStrategy strategy;
        ar.check(self.redteam.empty() ||
                 parseRedteamStrategy(self.redteam, &strategy));
    }
}

} // namespace bh

namespace bh::svc {

bool
parseMessage(const std::string &payload, JsonValue *out,
             std::string *error)
{
    if (!JsonValue::parse(payload, out, error))
        return false;
    if (!out->isObject()) {
        if (error)
            *error = "message is not a JSON object";
        return false;
    }
    const JsonValue *type = out->find("type");
    if (type == nullptr || !type->isString()) {
        if (error)
            *error = "message has no string \"type\"";
        return false;
    }
    return true;
}

std::string
messageType(const JsonValue &msg)
{
    const JsonValue *type = msg.isObject() ? msg.find("type") : nullptr;
    return type != nullptr && type->isString() ? type->asString() : "";
}

bool
mitigationFromName(const std::string &name, MitigationType *out)
{
    static constexpr MitigationType kAll[] = {
        MitigationType::kNone,  MitigationType::kPara,
        MitigationType::kGraphene, MitigationType::kHydra,
        MitigationType::kTwice, MitigationType::kAqua,
        MitigationType::kRega,  MitigationType::kRfm,
        MitigationType::kPrac,  MitigationType::kBlockHammer,
    };
    for (MitigationType type : kAll)
        if (name == mitigationName(type)) {
            *out = type;
            return true;
        }
    return false;
}

JsonValue
experimentConfigToJson(const ExperimentConfig &config)
{
    JsonWriter w;
    ExperimentConfig::transfer(w, config);
    return w.take();
}

bool
experimentConfigFromJson(const JsonValue &v, ExperimentConfig *out)
{
    ExperimentConfig config;
    JsonReader r(v);
    ExperimentConfig::transfer(r, config);
    if (!r.ok())
        return false;
    *out = std::move(config);
    return true;
}

JsonValue
makeHello(unsigned jobs, const std::string &worker_name)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "hello");
    msg.set("proto", kProtocolVersion);
    msg.set("schema", ResultStore::kSchemaVersion);
    msg.set("jobs", jobs);
    msg.set("name", worker_name);
    return msg;
}

JsonValue
makeHelloOk()
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "hello_ok");
    msg.set("proto", kProtocolVersion);
    msg.set("schema", ResultStore::kSchemaVersion);
    return msg;
}

JsonValue
makeLeaseRequest()
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "lease_request");
    return msg;
}

JsonValue
makeLease(const std::string &key, const ExperimentConfig &config,
          std::uint64_t deadline_ms)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "lease");
    msg.set("key", key);
    msg.set("config", experimentConfigToJson(config));
    msg.set("deadline_ms", deadline_ms);
    return msg;
}

JsonValue
makeHeartbeat(const std::string &key)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "heartbeat");
    msg.set("key", key);
    return msg;
}

JsonValue
makeResult(const std::string &key, JsonValue payload)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "result");
    msg.set("key", key);
    msg.set("payload", std::move(payload));
    return msg;
}

JsonValue
makeSolo(const std::string &app, std::uint64_t insts, double ipc)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "solo");
    msg.set("app", app);
    msg.set("insts", insts);
    msg.set("ipc", ipc);
    return msg;
}

JsonValue
makeDone()
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "done");
    return msg;
}

JsonValue
makeError(const std::string &message)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "error");
    msg.set("message", message);
    return msg;
}

} // namespace bh::svc
