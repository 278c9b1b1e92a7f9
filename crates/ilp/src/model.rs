//! Model-building API for 0/1 programs.

use crate::branch::{solve, IlpSolution};
use crate::error::IlpError;

/// Handle to a binary decision variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in [`IlpSolution::values`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// One linear constraint, stored sparsely.
#[derive(Clone, Debug)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// Builder for a 0/1 maximization problem.
///
/// All variables are binary; the objective is maximized. See the crate docs
/// for an end-to-end example.
#[derive(Clone, Debug, Default)]
pub struct IlpBuilder {
    names: Vec<String>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl IlpBuilder {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a binary variable with objective coefficient 0 and returns its
    /// handle.
    pub fn binary(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.objective.push(0.0);
        VarId(self.names.len() - 1)
    }

    /// Sets the objective coefficient of `var` (maximization).
    ///
    /// # Panics
    ///
    /// Panics if `var` was not created by this builder.
    pub fn objective(&mut self, var: VarId, coeff: f64) {
        self.objective[var.0] = coeff;
    }

    /// Adds the constraint `Σ terms (sense) rhs`.
    ///
    /// Repeated variables in `terms` are summed. Variables outside the model
    /// panic.
    pub fn constraint(&mut self, terms: &[(VarId, f64)], sense: Sense, rhs: f64) {
        let n = self.names.len();
        let mut dense = vec![0.0; n];
        for &(v, c) in terms {
            assert!(v.0 < n, "variable out of range");
            dense[v.0] += c;
        }
        let sparse: Vec<(usize, f64)> = dense
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c != 0.0)
            .collect();
        self.constraints.push(Constraint {
            terms: sparse,
            sense,
            rhs,
        });
    }

    /// Number of variables so far.
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// Finalizes the model.
    pub fn build(self) -> IlpProblem {
        IlpProblem {
            objective: self.objective,
            constraints: self.constraints,
        }
    }
}

/// An immutable 0/1 maximization problem; solve with
/// [`maximize`](IlpProblem::maximize).
#[derive(Clone, Debug)]
pub struct IlpProblem {
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl IlpProblem {
    /// Number of binary variables.
    pub fn var_count(&self) -> usize {
        self.objective.len()
    }

    /// Solves the problem exactly by branch and bound over the simplex
    /// relaxation.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when no 0/1 assignment satisfies the
    /// constraints; [`IlpError::IterationLimit`] / [`IlpError::NodeLimit`]
    /// when the (generous) safety limits are exceeded.
    pub fn maximize(&self) -> Result<IlpSolution, IlpError> {
        solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicate_terms() {
        let mut b = IlpBuilder::new();
        let x = b.binary("x");
        b.constraint(&[(x, 1.0), (x, 2.0)], Sense::Le, 3.0);
        let p = b.build();
        assert_eq!(p.constraints[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut b = IlpBuilder::new();
        let x = b.binary("x");
        let y = b.binary("y");
        b.constraint(&[(x, 0.0), (y, 1.0)], Sense::Ge, 1.0);
        let p = b.build();
        assert_eq!(p.constraints[0].terms, vec![(1, 1.0)]);
        assert_eq!(p.var_count(), 2);
    }

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn foreign_variable_panics() {
        let mut b = IlpBuilder::new();
        b.binary("x");
        b.constraint(&[(VarId(7), 1.0)], Sense::Le, 1.0);
    }
}
