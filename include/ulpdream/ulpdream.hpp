#pragma once
// Umbrella facade header — the supported include for library users:
//
//   #include <ulpdream/ulpdream.hpp>
//
// Pulls in the public surface of every module and lifts the main entry
// points into the top-level ulpdream namespace. The extension seams are
// the string-keyed registries (ulpdream::core::emt_registry(),
// ulpdream::apps::app_registry(), ulpdream::mem::ber_model_registry()):
// register a component under a name and every layer — campaign specs,
// the campaign CLI and the daemon — can select it exactly like a
// built-in. See examples/custom_emt.cpp for an EMT defined and
// registered entirely outside src/.

// Core: EMT interface, registry-backed factory, adaptive policy, memory.
#include "ulpdream/core/adaptive.hpp"
#include "ulpdream/core/emt.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/protected_buffer.hpp"

// Fault environment: geometry, BER(V) models, fault maps.
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/mem/memory.hpp"

// Applications and signal sources.
#include "ulpdream/apps/app.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/ecg/generator.hpp"

// Experiment machinery: runner, policy search, campaigns and their raw
// store files, and the asynchronous execution runtime (Session /
// CampaignHandle).
#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/policy_explorer.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/sim/runner.hpp"

// Metrics and shared utilities.
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/util/registry.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream {

/// A Monte-Carlo grid, named by registry names: submit it to a Session
/// and take() its store.
using campaign::CampaignSpec;
using campaign::AggregateRow;
using campaign::GroupBy;

/// The asynchronous execution runtime: one shared pool, many campaigns,
/// streaming progress, cancel, checkpoint/resume.
using campaign::CampaignHandle;
using campaign::Progress;
using campaign::Session;
using campaign::SubmitOptions;

/// Registration metadata shared by all component registries.
using util::Descriptor;
using util::Registry;

}  // namespace ulpdream
