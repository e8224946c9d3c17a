// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/backoff.h"
#include "flare/aggregator.h"
#include "flare/learner.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "flare/server.h"
#include "flare/transport.h"
#include "nn/state_dict.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace cppflare::testing {

/// Numerical gradient check: for scalar-valued `f` of `inputs`, compares
/// analytic gradients (from backward()) against central differences.
///
/// `f` must rebuild the graph from the *current data* of the inputs on every
/// call (it is invoked repeatedly with perturbed values).
inline void expect_gradients_close(
    const std::function<tensor::Tensor()>& f,
    std::vector<tensor::Tensor> inputs, float eps = 1e-2f, float rtol = 5e-2f,
    float atol = 5e-3f) {
  // Analytic pass.
  tensor::Tensor loss = f();
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();
  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (auto& in : inputs) {
    ASSERT_TRUE(in.requires_grad());
    analytic.push_back(in.impl()->grad);
    ASSERT_EQ(analytic.back().size(), in.vec().size());
  }

  // Numerical pass (central differences), with autograd off.
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    auto& in = inputs[t];
    for (std::size_t i = 0; i < in.vec().size(); ++i) {
      const float saved = in.vec()[i];
      in.vec()[i] = saved + eps;
      const float plus = [&] {
        tensor::NoGradGuard g;
        return f().item();
      }();
      in.vec()[i] = saved - eps;
      const float minus = [&] {
        tensor::NoGradGuard g;
        return f().item();
      }();
      in.vec()[i] = saved;
      const float numeric = (plus - minus) / (2.0f * eps);
      const float got = analytic[t][i];
      const float tol = atol + rtol * std::fabs(numeric);
      EXPECT_NEAR(got, numeric, tol)
          << "input " << t << " element " << i;
    }
  }
}

/// Elementwise comparison helper.
inline void expect_tensor_eq(const tensor::Tensor& got,
                             const std::vector<float>& want, float tol = 1e-5f) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want[i], tol) << "element " << i;
  }
}

/// Exact equality of two float buffers: the sizes, then every element's bit
/// pattern (memcmp semantics, so -0 != +0 and equal NaNs compare equal).
/// Shaped like Caffe2's assertsTensorEquals, but a mismatch reports only the
/// first differing index, with both values and their bits in hex.
inline void expect_bitwise_equal(const std::vector<float>& actual,
                                 const std::vector<float>& expected,
                                 const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what << ": sizes differ";
  if (std::memcmp(actual.data(), expected.data(),
                  actual.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    std::uint32_t got = 0, want = 0;
    std::memcpy(&got, &actual[i], sizeof(got));
    std::memcpy(&want, &expected[i], sizeof(want));
    if (got == want) continue;
    char bits[64];
    std::snprintf(bits, sizeof(bits), "0x%08x vs 0x%08x", got, want);
    ADD_FAILURE() << what << ": first difference at index " << i << " of "
                  << actual.size() << ": " << actual[i] << " vs " << expected[i]
                  << " (" << bits << ")";
    return;
  }
}

// ---------------------------------------------------------------------------
// Federation fixtures
// ---------------------------------------------------------------------------

/// A one-tensor model "w" holding `w`.
inline nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

/// Bitwise model equality — the acceptance bar for every memcmp contract.
inline bool bit_equal(const nn::StateDict& a, const nn::StateDict& b) {
  if (!a.congruent_with(b)) return false;
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  for (; ia != a.entries().end(); ++ia, ++ib) {
    if (std::memcmp(ia->second.values.data(), ib->second.values.data(),
                    ia->second.values.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Deterministic learner: nudges every weight halfway toward a per-site
/// target, optionally after sleeping `train_ms`. A round's result is a pure
/// function of the incoming model, so any two runs that execute the same
/// rounds agree bit-for-bit.
class NudgeLearner : public flare::Learner {
 public:
  NudgeLearner(std::string site, float target, std::int64_t train_ms = 0)
      : site_(std::move(site)), target_(target), train_ms_(train_ms) {}

  flare::Dxo train(const flare::Dxo& global, const flare::FLContext&) override {
    core::Backoff::sleep_ms(train_ms_);
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    flare::Dxo update(flare::DxoKind::kWeights, updated);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
    update.set_meta_double(flare::Dxo::kMetaTrainLoss, 1.0);
    update.set_meta_double(flare::Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::int64_t train_ms_;
};

/// Wire-level harness: drives a federated server — or a JobRunner's router
/// — one sealed frame at a time through its AsyncDispatcher, so a test
/// controls exactly who is heard from and when. Polls carry wait_ms = 0, so
/// the server never parks them and every reply comes back inline.
class ManualFederation {
 public:
  /// Hosts its own server for `num_sites` sites provisioned under
  /// config.job_id.
  ManualFederation(const flare::ServerConfig& config, std::int64_t num_sites,
                   nn::StateDict initial = dict_of({0.0f, 0.0f}),
                   std::unique_ptr<flare::Aggregator> aggregator =
                       std::make_unique<flare::FedAvgAggregator>(true))
      : registry_(flare::Provisioner(config.job_id, 17)
                      .provision_sites(num_sites)) {
    server_ = std::make_unique<flare::FederatedServer>(
        config, registry_, std::move(initial), std::move(aggregator));
    dispatch_ = server_->async_dispatcher();
  }

  /// Speaks for the sites in `registry` to `dispatch` (a server's or a job
  /// router's), binding every frame to `job_id`. A harness built without a
  /// dispatcher gets its server from restart().
  explicit ManualFederation(std::map<std::string, flare::Credential> registry,
                            flare::AsyncDispatcher dispatch = {},
                            std::string job_id = {})
      : registry_(std::move(registry)),
        dispatch_(std::move(dispatch)),
        job_id_(std::move(job_id)) {}

  /// The hosted server (not available when driving a foreign dispatcher).
  flare::FederatedServer& server() { return *server_; }
  const std::map<std::string, flare::Credential>& registry() const {
    return registry_;
  }

  /// Tears the hosted server down (losing all in-memory round state) and
  /// hosts the one `boot` builds — a restarted coordinator. Sessions die
  /// with the old server; the sites' sequence counters carry on.
  void restart(
      const std::function<std::unique_ptr<flare::FederatedServer>()>& boot) {
    server_.reset();
    server_ = boot();
    dispatch_ = server_->async_dispatcher();
    sessions_.clear();
  }

  /// Raw exchange: sealed request in, sealed reply out.
  std::vector<std::uint8_t> exchange(const std::vector<std::uint8_t>& sealed) {
    auto reply = std::make_shared<std::vector<std::uint8_t>>();
    auto answered = std::make_shared<bool>(false);
    dispatch_(sealed, [reply, answered](std::vector<std::uint8_t> bytes) {
      *reply = std::move(bytes);
      *answered = true;
    });
    EXPECT_TRUE(*answered) << "request was not answered inline";
    return std::move(*reply);
  }

  /// Seals `frame` as `site`, exchanges it, and returns the verified reply
  /// payload.
  std::vector<std::uint8_t> call(const std::string& site,
                                 const std::vector<std::uint8_t>& frame) {
    const flare::Credential& cred = registry_.at(site);
    const std::vector<std::uint8_t> reply = exchange(
        flare::seal(cred.name, cred.secret, seq_[site].next(), frame, job_id_));
    const std::span<const std::uint8_t> payload =
        flare::open(reply, cred.secret).payload;
    return {payload.begin(), payload.end()};
  }

  std::string register_site(const std::string& site) {
    const flare::RegisterAck ack = flare::decode_register_ack(call(
        site, flare::pack(flare::RegisterRequest{site, registry_.at(site).token})));
    EXPECT_TRUE(ack.accepted) << site << ": " << ack.message;
    sessions_[site] = ack.session_id;
    return ack.session_id;
  }

  void register_all(std::int64_t num_sites) {
    for (std::int64_t i = 0; i < num_sites; ++i) {
      register_site("site-" + std::to_string(i + 1));
    }
  }

  /// One get_task; the raw reply payload (a task or an UnmaskRequest).
  std::vector<std::uint8_t> poll(const std::string& site) {
    return call(site, flare::pack(flare::GetTaskRequest{sessions_.at(site), 0}));
  }

  flare::TaskMessage get_task(const std::string& site) {
    return flare::decode_task(poll(site));
  }

  flare::SubmitAck submit_dxo(const std::string& site, std::int64_t round,
                              flare::Dxo dxo) {
    flare::SubmitUpdateRequest req;
    req.session_id = sessions_.at(site);
    req.round = round;
    req.payload = std::move(dxo);
    return flare::decode_submit_ack(call(site, flare::pack(req)));
  }

  /// Submits plain weights claiming 10 samples.
  flare::SubmitAck submit(const std::string& site, std::int64_t round,
                          std::vector<float> weights) {
    flare::Dxo dxo(flare::DxoKind::kWeights, dict_of(std::move(weights)));
    dxo.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
    return submit_dxo(site, round, std::move(dxo));
  }

  const std::string& session(const std::string& site) const {
    return sessions_.at(site);
  }

 private:
  std::map<std::string, flare::Credential> registry_;
  std::unique_ptr<flare::FederatedServer> server_;
  flare::AsyncDispatcher dispatch_;
  std::string job_id_;
  std::map<std::string, flare::SequenceSource> seq_;
  std::map<std::string, std::string> sessions_;
};

}  // namespace cppflare::testing
