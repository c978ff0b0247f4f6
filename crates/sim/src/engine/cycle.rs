//! The cycle-accurate reference engine (the oracle).
//!
//! Steps [`EngineState::step_cycle`] once per simulated cycle until
//! every chunk has streamed, the cycle budget runs out, or a strict
//! overflow aborts the run — O(cycles × stages). This is the behavioral
//! ground truth: `engine::event` must reproduce its [`RunReport`]s
//! bit-for-bit under deterministic latency, and the equivalence tests
//! hold it to that.

use super::state::{EngineState, Step};
use super::EngineConfig;

/// Drives `state` to completion one cycle at a time.
pub(super) fn run_to_completion(state: &mut EngineState<'_>, config: &EngineConfig) {
    while state.any_incomplete() {
        if state.now >= config.max_cycles {
            break;
        }
        if state.step_cycle(config) == Step::Overflow {
            break;
        }
    }
}
