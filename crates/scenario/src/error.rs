//! Error type of the scenario layer.

use dps_core::error::ModelError;
use dps_sim::runner::ReportError;
use std::fmt;

/// Anything that can go wrong building or running a scenario.
#[derive(Clone, Debug)]
pub enum ScenarioError {
    /// A core-model error (invalid rate, inconsistent frame, bad path…).
    Model(ModelError),
    /// A declarative spec failed validation.
    Spec(String),
    /// A spec file failed to parse.
    Parse(serde::Error),
    /// No registry preset with the given name.
    UnknownPreset(String),
    /// A finished run's report contradicts itself (see
    /// [`dps_sim::runner::SimulationReport::check`]).
    Report(ReportError),
}

impl ScenarioError {
    /// Creates a validation error.
    pub fn spec(message: impl Into<String>) -> Self {
        ScenarioError::Spec(message.into())
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Model(e) => write!(f, "model error: {e}"),
            ScenarioError::Spec(m) => write!(f, "invalid scenario spec: {m}"),
            ScenarioError::Parse(e) => write!(f, "spec parse error: {e}"),
            ScenarioError::UnknownPreset(name) => {
                write!(f, "unknown preset `{name}` (see `scenario list`)")
            }
            ScenarioError::Report(e) => write!(f, "inconsistent simulation report: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

impl From<serde::Error> for ScenarioError {
    fn from(e: serde::Error) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<ReportError> for ScenarioError {
    fn from(e: ReportError) -> Self {
        ScenarioError::Report(e)
    }
}
