#include "sim/workload.h"

#include <algorithm>
#include <cmath>

namespace bcc {

namespace {

// Rounds a positive double delay to an integer number of bit-units, at
// least 1 to keep event times strictly advancing where it matters.
SimTime RoundDelay(double d) {
  if (d < 1.0) return 1;
  return static_cast<SimTime>(std::llround(d));
}

// One uniform-or-skewed object draw: with probability `hot_fraction` from
// the hot set [0, hot_set_size), else from the cold remainder. Negative
// fraction (or degenerate hot set) means uniform over everything.
ObjectId SampleObject(const SimConfig& c, double hot_fraction, Rng* rng) {
  if (hot_fraction < 0.0 || c.hot_set_size == 0 || c.hot_set_size >= c.num_objects) {
    return static_cast<ObjectId>(rng->NextBounded(c.num_objects));
  }
  if (rng->NextBernoulli(hot_fraction)) {
    return static_cast<ObjectId>(rng->NextBounded(c.hot_set_size));
  }
  return static_cast<ObjectId>(c.hot_set_size +
                               rng->NextBounded(c.num_objects - c.hot_set_size));
}

// k distinct draws via rejection (k is tiny relative to the database).
std::vector<ObjectId> SampleDistinct(const SimConfig& c, double hot_fraction, uint32_t k,
                                     Rng* rng) {
  std::vector<ObjectId> out;
  out.reserve(k);
  while (out.size() < k) {
    const ObjectId ob = SampleObject(c, hot_fraction, rng);
    if (std::find(out.begin(), out.end(), ob) == out.end()) out.push_back(ob);
  }
  return out;
}

}  // namespace

ServerWorkload::ServerWorkload(const SimConfig& config, Rng rng, TxnId first_id)
    : config_(config), rng_(rng), next_id_(first_id) {}

ServerTxn ServerWorkload::NextTxn() {
  ServerTxn txn;
  txn.id = next_id_++;
  // Each set holds at most one entry per operation.
  txn.read_set.reserve(config_.server_txn_length);
  txn.write_set.reserve(config_.server_txn_length);
  for (;;) {
    txn.read_set.clear();
    txn.write_set.clear();
    for (uint32_t op = 0; op < config_.server_txn_length; ++op) {
      const ObjectId ob = SampleObject(config_, config_.server_hot_access_fraction, &rng_);
      const bool is_read = rng_.NextBernoulli(config_.server_read_probability);
      auto& set = is_read ? txn.read_set : txn.write_set;
      if (std::find(set.begin(), set.end(), ob) == set.end()) set.push_back(ob);
    }
    if (!txn.write_set.empty()) break;  // must be an update transaction
  }
  return txn;
}

SimTime ServerWorkload::NextInterval() {
  if (!config_.server_interval_exponential) return config_.server_txn_interval;
  return RoundDelay(rng_.NextExponential(static_cast<double>(config_.server_txn_interval)));
}

ClientWorkload::ClientWorkload(const SimConfig& config, Rng rng)
    : config_(config), rng_(rng) {}

std::vector<ObjectId> ClientWorkload::NextReadSet() {
  return SampleDistinct(config_, config_.client_hot_access_fraction,
                        config_.client_txn_length, &rng_);
}

bool ClientWorkload::NextIsUpdate() {
  return rng_.NextBernoulli(config_.client_update_fraction);
}

std::vector<ObjectId> ClientWorkload::NextWriteSet() {
  return SampleDistinct(config_, config_.client_hot_access_fraction,
                        config_.client_update_writes, &rng_);
}

SimTime ClientWorkload::NextInterOpDelay() {
  return RoundDelay(rng_.NextExponential(static_cast<double>(config_.mean_inter_op_delay)));
}

SimTime ClientWorkload::NextInterTxnDelay() {
  return RoundDelay(rng_.NextExponential(static_cast<double>(config_.mean_inter_txn_delay)));
}

}  // namespace bcc
