//! Instrumentation overhead model (Section 3.4, Table 4 and Figure 12).
//!
//! ATOM cannot insert inline code, so the paper measures the cost of the added
//! instructions with a hand-instrumented microbenchmark and charges a fixed
//! penalty per instrumentation point inside the simulator. We follow the same
//! approach with the same constants: 9 cycles for a point that accesses the
//! two-dimensional node-label table, 17 cycles for a reconfiguration point
//! (which additionally reads the frequency table and writes the
//! reconfiguration register). Loop headers only add a statically known offset
//! to the current label, and the L+F / F schemes use statically known
//! frequencies whose few instructions schedule into empty issue slots, so both
//! are substantially cheaper.

/// Cycles charged for an instrumentation point that performs the 2-D
/// node-label table lookup (subroutine prologue/epilogue under path tracking).
pub const PATH_INSTRUMENTATION_CYCLES: f64 = 9.0;

/// Cycles charged for a reconfiguration point: node-label update, frequency
/// table access and reconfiguration-register write.
pub const RECONFIG_POINT_CYCLES: f64 = 17.0;

/// Cycles charged for a loop header/footer or call-site label update (adds a
/// statically known offset, no table lookup).
pub const LOOP_LABEL_CYCLES: f64 = 4.0;

/// Cycles charged for a reconfiguration point under the L+F and F policies,
/// where the frequency values are statically known and the handful of
/// instructions schedule into otherwise-empty slots ("virtually zero" in the
/// paper).
pub const SIMPLE_RECONFIG_CYCLES: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_paper() {
        assert_eq!(PATH_INSTRUMENTATION_CYCLES, 9.0);
        assert_eq!(RECONFIG_POINT_CYCLES, 17.0);
        const {
            assert!(LOOP_LABEL_CYCLES < PATH_INSTRUMENTATION_CYCLES);
            assert!(SIMPLE_RECONFIG_CYCLES < LOOP_LABEL_CYCLES);
        }
    }
}
