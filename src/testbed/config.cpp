#include "testbed/config.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mc/scenario.hpp"
#include "net/delay_model.hpp"

namespace lbsim::testbed {

TestbedConfig TestbedConfig::clone() const {
  TestbedConfig copy;
  copy.params = params;
  copy.workloads = workloads;
  copy.policy = policy ? policy->clone() : nullptr;
  copy.transfer_setup_shift = transfer_setup_shift;
  copy.state_broadcast_period = state_broadcast_period;
  copy.state_latency = state_latency;
  copy.state_loss_probability = state_loss_probability;
  copy.channel = channel;
  copy.environment = environment;
  copy.churn_enabled = churn_enabled;
  copy.initially_down = initially_down;
  return copy;
}

TestbedConfig paper_testbed(std::size_t m0, std::size_t m1, core::PolicyPtr policy) {
  const markov::TwoNodeParams two = markov::ipdps2006_params();
  TestbedConfig config;
  config.params.nodes = {two.nodes[0], two.nodes[1]};
  config.params.per_task_delay_mean = two.per_task_delay_mean;
  config.workloads = {m0, m1};
  config.policy = std::move(policy);
  return config;
}

void validate(const TestbedConfig& config) { mc::validate(to_scenario(config)); }

TestbedConfig from_scenario(mc::ScenarioConfig&& scenario) {
  std::string unsupported;
  const auto refuse = [&unsupported](const char* what) {
    unsupported += std::string(unsupported.empty() ? "" : ", ") + what;
  };
  if (scenario.rebalance_period > 0.0) refuse("policy=periodic");
  if (scenario.delay_model != nullptr) refuse("delay.model/delay.shift");
  if (scenario.arrivals.active()) refuse("arrivals.*");
  if (!scenario.schedule.empty()) refuse("schedule");
  if (!scenario.topology.complete()) refuse("topology");
  if (!unsupported.empty()) {
    throw std::invalid_argument("the testbed engine does not emulate " + unsupported +
                                " for this scenario; use the default mc engine");
  }
  TestbedConfig config;
  config.params = scenario.params;
  config.workloads = scenario.workloads;
  config.policy = std::move(scenario.policy);
  config.state_broadcast_period = scenario.exchange_period;
  config.state_latency = scenario.exchange_latency;
  config.state_loss_probability = scenario.exchange_loss;
  config.channel = scenario.state_channel;
  config.environment = scenario.environment;
  config.churn_enabled = scenario.churn_enabled;
  config.initially_down = scenario.initially_down;
  return config;
}

mc::ScenarioConfig to_scenario(const TestbedConfig& config) {
  mc::ScenarioConfig scenario;
  scenario.testbed = true;
  scenario.params = config.params;
  scenario.workloads = config.workloads;
  scenario.policy = config.policy ? config.policy->clone() : nullptr;
  scenario.delay_model = std::make_unique<net::ErlangPerTaskDelay>(
      config.params.per_task_delay_mean, config.transfer_setup_shift);
  scenario.churn_enabled = config.churn_enabled;
  scenario.initially_down = config.initially_down;
  scenario.environment = config.environment;
  scenario.exchange_period = config.state_broadcast_period;
  scenario.exchange_latency = config.state_latency;
  scenario.exchange_loss = config.state_loss_probability;
  scenario.state_channel = config.channel;
  return scenario;
}

mc::ScenarioConfig emulate(mc::ScenarioConfig&& scenario) {
  return to_scenario(from_scenario(std::move(scenario)));
}

}  // namespace lbsim::testbed
