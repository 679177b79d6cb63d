// Determinism guarantees of the refactored event core.
//
// 1. Same-time events drain in seq (submission) order — the FIFO tie-break
//    that makes the priority queue deterministic.
// 2. The golden digest corpus: RunReport::digest() for every registry
//    scenario that predates the zero-copy refactor, captured on the seed
//    implementation (commit f202124). The refactor — MessageRef payload
//    sharing, ProcessTable, FaultTimeline plumbing, the synchrony_cap floor
//    fix — must leave every one of these byte-identical. If an intentional
//    semantic change ever breaks this, regenerate the table and say so in
//    the commit message.
// 3. The pooled-vs-serial sweep over the new fault-timeline scenarios:
//    thread placement must not leak into results.
#include <gtest/gtest.h>

#include <string_view>

#include "cup/batch_runner.hpp"
#include "cup/scenario_registry.hpp"
#include "test_util.hpp"

namespace bftcup {
namespace {

using test::ScriptedProcess;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(QueueOrderTest, SameTimeTimersDrainInArmingOrder) {
  sim::Simulator::Options options;
  sim::Simulator simulator(options);
  std::vector<int> fired;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](sim::Context& ctx) {
    // All fire at t=10; seq order == arming order, not kind order.
    ctx.set_timer(10, 3);
    ctx.set_timer(10, 1);
    ctx.set_timer(10, 2);
  });
  a->on_timer_do([&](int kind, sim::Context&) { fired.push_back(kind); });
  simulator.add_process(std::move(a));
  simulator.run();
  EXPECT_EQ(fired, (std::vector<int>{3, 1, 2}));
}

TEST(QueueOrderTest, SameTimeEventsAcrossProcessesDrainInSeqOrder) {
  sim::Simulator::Options options;
  sim::Simulator simulator(options);
  std::vector<std::uint64_t> order;
  for (std::uint64_t raw : {2ULL, 1ULL, 3ULL}) {
    auto proc = std::make_unique<ScriptedProcess>(p(raw));
    proc->on_start_do([](sim::Context& ctx) { ctx.set_timer(5, 0); });
    proc->on_timer_do([&order, raw](int, sim::Context&) {
      order.push_back(raw);
    });
    simulator.add_process(std::move(proc));
  }
  simulator.run();
  // on_start runs sorted by id (1, 2, 3), so the timers are armed — and at
  // the shared fire time drained — in exactly that order.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

struct GoldenDigest {
  const char* scenario;
  std::uint64_t seed;
  const char* digest;
};

/// Captured on the pre-refactor seed implementation; see file comment.
constexpr GoldenDigest kGoldenCorpus[] = {
    {"adhoc/f1", 1,
     "0eea805e0aba1c86db77ade70f9b7ec345c83f379e9def2849fcbcb51e749520"},  // SOLVED
    {"adhoc/f1", 7,
     "f77c5e855f2bbaa4fcced4d30b81c88fa8cda980268e7efee7cc530b55b106bd"},  // SOLVED
    {"adhoc/f2", 1,
     "7649fd19e6e0061444859c3a75fefa1645d87cca4281e6eabc74dfc1140b07f3"},  // SOLVED
    {"adhoc/f2", 7,
     "706791437ca961a7386ed829ce39f9fc97d7cb1518337611f47f3b6929459370"},  // SOLVED
    {"blockchain/committee", 1,
     "7903f8b8debaa12da18ee00b3e601eca58a2791fb922faed3956da0bfb986b4f"},  // SOLVED
    {"blockchain/committee", 7,
     "76407bc44c569bb589287a81b032c22e00abdf75881c002501d28fe758ce0d03"},  // SOLVED
    {"fig1a/silent", 1,
     "12978f2baa7bb3fd45e5d40267814f1aefa8a31e85898a3b1ac75668548b4ed4"},  // AGREEMENT-VIOLATED
    {"fig1a/silent", 7,
     "a1e0c02fa13514bd5e974061fd379c66466a3b3af9ec7764903b10944d518ead"},  // AGREEMENT-VIOLATED
    {"fig1b/fake-pd", 1,
     "52bde43358237b61dea87997b0e0d81f134980ad3a635101e747c22c78059603"},  // SOLVED
    {"fig1b/fake-pd", 7,
     "7257d671aa7e1f778b41c9eaff50b888c13c4295c0afb00d3e5480709d7a2109"},  // SOLVED
    {"fig1b/silent", 1,
     "22043fed842d818a15b5f42c9c857f8cb2ff0df19bf4d06a9c9e282ef27a5657"},  // SOLVED
    {"fig1b/silent", 7,
     "ff49fb975773647fd327732094ea7f465c62045899f71017a57c0125b74ba9b2"},  // SOLVED
    {"fig1b/wrong-value", 1,
     "c37b9281e512effc0fae1ad47c47d902aeff61db328dd462d0ea4313c5605c0a"},  // SOLVED
    {"fig1b/wrong-value", 7,
     "0e7d214a2b47844632e7f18bfeeb0e7d956675cd6ec3a5814471c5da6b2df93f"},  // SOLVED
    {"fig2/system-a-naive", 1,
     "3c43daf467cb77398e638fb707ccdda4693d904c3e9d49ad17fab496ebb1e3ba"},  // SOLVED
    {"fig2/system-a-naive", 7,
     "3c7846ccad468c908c1168ab710067268b07ec3cee7b0f02ab98b78213416a45"},  // SOLVED
    {"fig2/system-ab-cupft", 1,
     "4e14626fe2d4af0d0cde429a5f6b36f1701d991929d4a18f71669ffadbaf414b"},  // NO-TERMINATION
    {"fig2/system-ab-cupft", 7,
     "5bae7c9c2fc0f0b3aad75d7078a47d90a4ed88d959e70cde370566c7439ac85f"},  // NO-TERMINATION
    {"fig2/system-ab-naive", 1,
     "8483e0db25b5b73ea2520bcdaf9b0cf27db2c23320cffb3a1ea5fae4f455cc11"},  // AGREEMENT-VIOLATED
    {"fig2/system-ab-naive", 7,
     "8eaa0b978aebb52ccc06b44ac7d39738fd99b63d38ff33465d2e66a4a3be2ea1"},  // AGREEMENT-VIOLATED
    {"fig2/system-b-naive", 1,
     "da83da5319d2b70220df68dd9035a1f843a963ee4c5cc03915c3600b511c8ef6"},  // SOLVED
    {"fig2/system-b-naive", 7,
     "22e60f15a3051abcdfd5583faa9539832f3305ee4b893271adf25992cf289e01"},  // SOLVED
    {"fig3a/auth", 1,
     "e09c73e4d6eaf48f1d117b6b035d496164cda00ae9a5b855ca876be47670e0ce"},  // NO-TERMINATION
    {"fig3a/auth", 7,
     "eaecca7ddeb89a24ca743570f2d7662961b507f6503d7a7bf209e7d0ed26dadb"},  // NO-TERMINATION
    {"fig3a/cupft", 1,
     "cfdefae66effd12236bc0fd4debb4ee4e32c6bb34c59a58e839852f4919a92dc"},  // NO-TERMINATION
    {"fig3a/cupft", 7,
     "d73cb5ddab2646b5224da207f3e112a89f8ef9890a920a6c3ffa19448a9d0369"},  // NO-TERMINATION
    {"fig3b/auth", 1,
     "ba5482f9dd55aee83df6ba022138016dbdf7602279c849ffe3f68016ee69a4eb"},  // SOLVED
    {"fig3b/auth", 7,
     "b7451291271fcdfcccfb36fa9daa41975c08bb41a371428282cb667371b8ae44"},  // SOLVED
    {"fig3b/cupft", 1,
     "ca5ecab4a52945e2a8521007c6ac1a8359aeca3059fb707701d55b736169dcf1"},  // SOLVED
    {"fig3b/cupft", 7,
     "96679115247e79e83757062f477fbe123adf0cb0a6d7d1d9ab842fdf9c4e271d"},  // SOLVED
    {"fig4a/bridge-hiding-attack", 1,
     "099462156e24234f3e7f28c8d983e2de2344b1bea6103ec19d6669b49c1fad80"},  // AGREEMENT-VIOLATED
    {"fig4a/bridge-hiding-attack", 7,
     "6167dec9f074ffa9a303a441b8959ae68f7eae8b0fe0e189dd88fb3b3d1497ff"},  // AGREEMENT-VIOLATED
    {"fig4a/bridge-hiding-guarded", 1,
     "80d2cd1a26c8fd80bf0694bf7703b075d023b5df2453a98caee61250acac4aff"},  // NO-TERMINATION
    {"fig4a/bridge-hiding-guarded", 7,
     "8159336229279df882fea1da45fc2c7638902af59116ba8239a13a1b44572333"},  // NO-TERMINATION
    {"fig4a/closure-guard-cost", 1,
     "b67a911861d912821ad6f369ba81fdeb680a2e3fc0597c327e26247c3fd22d1e"},  // NO-TERMINATION
    {"fig4a/closure-guard-cost", 7,
     "02cd46fd5d86accb336da60498e6263ea175191c2cb39c5f32c46ccecdbb1e82"},  // NO-TERMINATION
    {"fig4a/cupft-fake-pd", 1,
     "484c1537631a29dae169294d0847e0b52b93d1067715d3e1984c4e8f96574632"},  // SOLVED
    {"fig4a/cupft-fake-pd", 7,
     "d1914b91501b1f1b5f06c826ca51c4f047b92401a96551d3fcbc42ed994c3a53"},  // SOLVED
    {"fig4a/cupft-silent", 1,
     "9934e5d4cd806b9a824bb8e865766a0090c2bc08234ff82d7b4a869de59597be"},  // SOLVED
    {"fig4a/cupft-silent", 7,
     "627413d04b65fdc8368430b2e2792dd563c7d48e611f93650c05c49aa23d7e61"},  // SOLVED
    {"fig4b/cupft-fake-pd", 1,
     "579c51e82c2bad52ecf63f24a149a802b8444988831d47fa36a391d02ad8c2ba"},  // SOLVED
    {"fig4b/cupft-fake-pd", 7,
     "f8f24da6c95de0180b79d6b91280498cc2cad5952b67243b72ebe03a08389d3e"},  // SOLVED
    {"fig4b/cupft-silent", 1,
     "9a89193503553feb3a6154cbb742069b7b8612d5b0e876448af75bc69791a15c"},  // SOLVED
    {"fig4b/cupft-silent", 7,
     "1772eea8d3a90eeff43fdaf7b631b9faac1e2b206fe74e1ecb1377f0e1ae3b5c"},  // SOLVED
    {"price-of-f/core5-peri10/auth", 1,
     "1353578c1490cdb39ce41350ca760aac7e58c6f771e7f0e7db0fdc607379b64a"},  // SOLVED
    {"price-of-f/core5-peri10/auth", 7,
     "0625d26c2510dd17f10b2d5fea1a42e6b3b2b2b9cba466ea55682e99463a1e47"},  // SOLVED
    {"price-of-f/core5-peri10/cupft", 1,
     "1353578c1490cdb39ce41350ca760aac7e58c6f771e7f0e7db0fdc607379b64a"},  // SOLVED
    {"price-of-f/core5-peri10/cupft", 7,
     "0625d26c2510dd17f10b2d5fea1a42e6b3b2b2b9cba466ea55682e99463a1e47"},  // SOLVED
    {"price-of-f/core5-peri3/auth", 1,
     "0c96c00dc49d18b7916d35d451865a89390ab64ad62c0fa12af9755a01a376c3"},  // SOLVED
    {"price-of-f/core5-peri3/auth", 7,
     "7ea69f90dbda67d01adc58ade194b3ff574a193adcec43b022c9af0d46b62f66"},  // SOLVED
    {"price-of-f/core5-peri3/cupft", 1,
     "0c96c00dc49d18b7916d35d451865a89390ab64ad62c0fa12af9755a01a376c3"},  // SOLVED
    {"price-of-f/core5-peri3/cupft", 7,
     "7ea69f90dbda67d01adc58ade194b3ff574a193adcec43b022c9af0d46b62f66"},  // SOLVED
    {"price-of-f/core5-peri6/auth", 1,
     "660827caf16c374178be456e602c7fa27f284a360036fe0d6a45caaa5bf8e5cd"},  // SOLVED
    {"price-of-f/core5-peri6/auth", 7,
     "31d852de2a3443bf628aede955090a6e19adcf9eeca505e4954545762f6de3c9"},  // SOLVED
    {"price-of-f/core5-peri6/cupft", 1,
     "660827caf16c374178be456e602c7fa27f284a360036fe0d6a45caaa5bf8e5cd"},  // SOLVED
    {"price-of-f/core5-peri6/cupft", 7,
     "31d852de2a3443bf628aede955090a6e19adcf9eeca505e4954545762f6de3c9"},  // SOLVED
    {"price-of-f/core7-peri10/auth", 1,
     "09f9bb302193b6e7dd5a15ecd1dd37d06407dfe225cacfbbacd7f479cda889da"},  // SOLVED
    {"price-of-f/core7-peri10/auth", 7,
     "d02cd0d94bc9f93b55f194d2e7752565feaa3487f156c3e975d6592f80c8fb42"},  // SOLVED
    {"price-of-f/core7-peri10/cupft", 1,
     "09f9bb302193b6e7dd5a15ecd1dd37d06407dfe225cacfbbacd7f479cda889da"},  // SOLVED
    {"price-of-f/core7-peri10/cupft", 7,
     "d02cd0d94bc9f93b55f194d2e7752565feaa3487f156c3e975d6592f80c8fb42"},  // SOLVED
    {"price-of-f/core7-peri3/auth", 1,
     "c067716a5afc3a613111202a7f2d0484614029719b09ffb730edc04b911505be"},  // SOLVED
    {"price-of-f/core7-peri3/auth", 7,
     "50ac80f54ddf8c3dd60c7c57c2f96c1c1b97a0ce674867c21db568b2626b642d"},  // SOLVED
    {"price-of-f/core7-peri3/cupft", 1,
     "c067716a5afc3a613111202a7f2d0484614029719b09ffb730edc04b911505be"},  // SOLVED
    {"price-of-f/core7-peri3/cupft", 7,
     "50ac80f54ddf8c3dd60c7c57c2f96c1c1b97a0ce674867c21db568b2626b642d"},  // SOLVED
    {"price-of-f/core7-peri6/auth", 1,
     "fb6e1c1b375e13d380baf0060b9c83eff723550596d4e8e6ab45b320b46fa513"},  // SOLVED
    {"price-of-f/core7-peri6/auth", 7,
     "f3f1a52b3db59c306f8dbe9d982362dcb11fa0408e9954066d3a151be9aea9d5"},  // SOLVED
    {"price-of-f/core7-peri6/cupft", 1,
     "fb6e1c1b375e13d380baf0060b9c83eff723550596d4e8e6ab45b320b46fa513"},  // SOLVED
    {"price-of-f/core7-peri6/cupft", 7,
     "f3f1a52b3db59c306f8dbe9d982362dcb11fa0408e9954066d3a151be9aea9d5"},  // SOLVED
    {"quickstart/fig1b-auth", 1,
     "22043fed842d818a15b5f42c9c857f8cb2ff0df19bf4d06a9c9e282ef27a5657"},  // SOLVED
    {"quickstart/fig1b-auth", 7,
     "ff49fb975773647fd327732094ea7f465c62045899f71017a57c0125b74ba9b2"},  // SOLVED
    {"table1/async/known-n-known-f", 1,
     "a14f7945681385219fc63c4b810d2845fefa583c4333d5e7c4deaa253b27fe33"},  // NO-TERMINATION
    {"table1/async/known-n-known-f", 7,
     "a14f7945681385219fc63c4b810d2845fefa583c4333d5e7c4deaa253b27fe33"},  // NO-TERMINATION
    {"table1/async/unknown-n-known-f", 1,
     "cee28880d9dada8e7077f19e90ec5b71e080d6c45ed0042edc710ae9b19a18f7"},  // NO-TERMINATION
    {"table1/async/unknown-n-known-f", 7,
     "cee28880d9dada8e7077f19e90ec5b71e080d6c45ed0042edc710ae9b19a18f7"},  // NO-TERMINATION
    {"table1/async/unknown-n-unknown-f", 1,
     "43190b09f895d0313c3f459900b1c6cb62700695bfa2996f0bf05cf7fd1ad6d7"},  // NO-TERMINATION
    {"table1/async/unknown-n-unknown-f", 7,
     "43190b09f895d0313c3f459900b1c6cb62700695bfa2996f0bf05cf7fd1ad6d7"},  // NO-TERMINATION
    {"table1/partial-sync/known-n-known-f", 1,
     "d02a9c5d0b5d0ebd962601d76cedf9b348edc69a7ce9a347dc5a7be250a2ce5b"},  // SOLVED
    {"table1/partial-sync/known-n-known-f", 7,
     "562a534733e7c5a1956f08845c4f2b9cfc13a933937671ddddbafd2da9bbb8f1"},  // SOLVED
    {"table1/partial-sync/unknown-n-known-f", 1,
     "7aeb172e6178f56b23d1ae8fee33035e8c7c698e379f94b17f337ac6e07aa328"},  // SOLVED
    {"table1/partial-sync/unknown-n-known-f", 7,
     "705d1258f20e0435c265543c9a5fae35efd499a12d4ece6caf17493db87f085e"},  // SOLVED
    {"table1/partial-sync/unknown-n-unknown-f", 1,
     "ca495ddd6f804dff1088322a63927ad5c19868dee401d7d78c3e4367d84b74f1"},  // SOLVED
    {"table1/partial-sync/unknown-n-unknown-f", 7,
     "be1fda756ba6b5903254d0d53cf81dddfa845c55d6f509a084079a42acebb125"},  // SOLVED
    {"table1/sync/known-n-known-f", 1,
     "01c99d089ae474b5fa4298383e28d8e2d9b68e7053ec426510615aa1485c32fa"},  // SOLVED
    {"table1/sync/known-n-known-f", 7,
     "995b24f25268ee43fd96fef7de8f74d5f56b8776e9bd6ee3c254ce0138b79f5c"},  // SOLVED
    {"table1/sync/unknown-n-known-f", 1,
     "f78c5e9198652a25d8684d5094be4bce39b5a340567e1544f7fb5f494c628975"},  // SOLVED
    {"table1/sync/unknown-n-known-f", 7,
     "434654584e5d68c21018f4aaa7d5c40ca64fb35140a4f80c4d6adc6859d683c3"},  // SOLVED
    {"table1/sync/unknown-n-unknown-f", 1,
     "96b1b9efb874c69bc39cc122ae753997257c753283e4da3166fbaf91e08379be"},  // SOLVED
    {"table1/sync/unknown-n-unknown-f", 7,
     "8285103f5a28704e7273ebab42d7d3ca64600b502ef6cc8de949ce869d07c41b"},  // SOLVED
};

TEST(GoldenCorpusTest, DigestsMatchThePreRefactorImplementation) {
  const auto& registry = cup::ScenarioRegistry::paper();
  for (const GoldenDigest& golden : kGoldenCorpus) {
    const cup::RunReport report = registry.run(golden.scenario, golden.seed);
    EXPECT_EQ(report.digest(), golden.digest)
        << golden.scenario << " seed=" << golden.seed;
  }
}

TEST(GoldenCorpusTest, DigestsSurviveTheFullObservabilityStack) {
  // The observation-only contract against the strongest oracle available:
  // with the span flight recorder attached on top of the always-on metrics,
  // every golden digest must still match the constants captured before
  // src/obs/ existed. Complements obs_determinism_test's explored/dyn sweep
  // with the paper-figure corpus.
  const auto& registry = cup::ScenarioRegistry::paper();
  for (const GoldenDigest& golden : kGoldenCorpus) {
    const cup::RunReport report =
        cup::run_scenario(registry.builder(golden.scenario, golden.seed)
                              .tracing(true)
                              .build());
    EXPECT_EQ(report.digest(), golden.digest)
        << golden.scenario << " seed=" << golden.seed;
  }
}

/// The explorer-found attack corpus (see register_explored in
/// scenario_registry.cpp), captured when the findings were minimized and
/// checked in. Each one-line genome must replay bit-identically forever;
/// an intentional semantic change must regenerate this table and say so.
constexpr GoldenDigest kExploredCorpus[] = {
    {"explored/agreement-14960b90", 1,
     "83db300bdff54d51becb5b1999360b5ed4c8db9830bb9aa880b48293063b23e0"},  // AGREEMENT-VIOLATED
    {"explored/agreement-14960b90", 7,
     "234aa6cfef02ace1e1bdd1c7ed7330b68d0f0e7bb0eb8c9cda20c8b3530a1f6f"},  // NO-TERMINATION
    {"explored/agreement-2085e512", 1,
     "0d6e03b1097b2be19749ab1efb167f6d9242d2777379df1e94e717c704fd2312"},  // AGREEMENT-VIOLATED
    {"explored/agreement-2085e512", 7,
     "477e7658914ee3b7a5d448a16faf1919564f906c71fcff44c0bcd3c0cc69ea75"},  // AGREEMENT-VIOLATED
    {"explored/agreement-2085e512-guarded", 1,
     "42f02ad4e747acb8a7f5f61442218b68181436fd1c40f8ef1437527e39fd8a10"},  // NO-TERMINATION
    {"explored/agreement-2085e512-guarded", 7,
     "817c95038187c146c08919f746206338d9f59076903a57734a6c3c17e1d2b3d1"},  // NO-TERMINATION
    {"explored/agreement-unsat-a872e429", 1,
     "770210d38111571356617fde443cb141d549dea409f25ff53988688f995cefbd"},  // AGREEMENT-VIOLATED
    {"explored/agreement-unsat-a872e429", 7,
     "b738f51679a398cfd5b131f42cd7ef74a373e3535e02d09fe6a4ee5bb7682207"},  // AGREEMENT-VIOLATED
    {"explored/liveness-94af2f39", 1,
     "a19c0e11445b11e06b6e2f2e23fed432f26e755e1bd34dc1b7b095415c748d3f"},  // NO-TERMINATION
    {"explored/liveness-94af2f39", 7,
     "92c4d6b220ec8dc75d78a5e00847aefefc298b25ca920fc16874044dfc2ef7f5"},  // AGREEMENT-VIOLATED
    {"explored/liveness-489bf1e6", 1,
     "da708bc47abc650bc19f09b0db0b9521e5e5734a18d577d5e2463bed06fdac96"},  // NO-TERMINATION
    {"explored/liveness-489bf1e6", 7,
     "2ea0edac1143a77f783ed59fd2063c5b5a33f9ef1defd48a4e3ad464bed1aeda"},  // AGREEMENT-VIOLATED
    {"explored/liveness-fda77490", 1,
     "b2443d5e54113c568b3e8db354ca8717f537cb428955e4261cef648b35dba231"},  // NO-TERMINATION
    {"explored/liveness-fda77490", 7,
     "84b1dfd3f2a5bf2b0f89b25fbe4602a4f6fed7edd8180db69cb14873251b54ac"},  // NO-TERMINATION
    {"explored/witness-45674aae", 1,
     "b70e3aba8b845f47a3afa354e507ea20e8fbaedbd9cc048eb37bb50250de2ba3"},  // SOLVED
    {"explored/witness-45674aae", 7,
     "f5c1d1cb0d76223922ce21efbb36ace0ec8a4b6c9689e422e0b2e21d77e59dba"},  // SOLVED
};

TEST(GoldenCorpusTest, ExploredCorpusReplaysFromRegistryNamesAlone) {
  const auto& registry = cup::ScenarioRegistry::paper();
  // Every checked-in explored/* scenario is covered here (at two seeds).
  EXPECT_EQ(registry.names_with_tag("explored").size() * 2,
            std::size(kExploredCorpus));
  for (const GoldenDigest& golden : kExploredCorpus) {
    const cup::RunReport report = registry.run(golden.scenario, golden.seed);
    EXPECT_EQ(report.digest(), golden.digest)
        << golden.scenario << " seed=" << golden.seed;
  }
}

TEST(GoldenCorpusTest, DigestsAreInvariantUnderDisabledCaches) {
  // The membership-engine caches (the shared evaluation memo and the
  // signature memos) store pure functions of immutable inputs; turning them
  // off must replay each golden digest byte-identically. A representative slice of the corpus covering
  // every node mode and adversary family keeps the double-run affordable.
  constexpr const char* kCacheInvarianceSubset[] = {
      "adhoc/f1",
      "blockchain/committee",
      "fig1a/silent",
      "fig1b/fake-pd",
      "fig1b/wrong-value",
      "fig2/system-ab-naive",
      "fig3a/cupft",
      "fig3b/auth",
      "fig4a/bridge-hiding-attack",
      "fig4b/cupft-silent",
      "price-of-f/core5-peri3/cupft",
      "table1/partial-sync/unknown-n-unknown-f",
  };
  const auto& registry = cup::ScenarioRegistry::paper();
  std::size_t matched = 0;
  for (const char* name : kCacheInvarianceSubset) {
    bool found = false;
    for (const GoldenDigest& golden : kGoldenCorpus) {
      if (std::string_view(golden.scenario) != name || golden.seed != 1) {
        continue;
      }
      found = true;
      ++matched;
      const cup::Scenario cold =
          registry.builder(name, golden.seed).caching(false).build();
      EXPECT_EQ(cup::run_scenario(cold).digest(), golden.digest)
          << name << " seed=" << golden.seed << " (caches disabled)";
    }
    // A renamed/typo'd subset entry must fail loudly, not shrink coverage.
    EXPECT_TRUE(found) << name << " matched no golden corpus entry";
  }
  EXPECT_EQ(matched, std::size(kCacheInvarianceSubset));
}

TEST(PooledVsSerialTest, DynamicScenarioSweepIsThreadPlacementInvariant) {
  cup::Sweep sweep;
  sweep.add_tag(cup::ScenarioRegistry::paper(), "dynamic");
  sweep.seeds(1, 3);

  cup::BatchRunner::Options options;
  options.threads = 4;
  options.verify_determinism = true;  // asserts pooled == serial digests
  const cup::BatchReport report = cup::BatchRunner(options).run(sweep);
  EXPECT_EQ(report.runs().size(), sweep.run_count());
  for (const auto& stats : report.scenarios()) {
    EXPECT_EQ(stats.agreement_violations, 0U) << stats.scenario;
    EXPECT_EQ(stats.validity_violations, 0U) << stats.scenario;
  }
}

}  // namespace
}  // namespace bftcup
