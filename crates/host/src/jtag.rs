//! The Ethernet/JTAG controller (§2.3).
//!
//! Each ASIC has a second Ethernet connection that "receives only UDP
//! Ethernet packets and, in particular, only responds to Ethernet packets
//! which carry JTAG commands as their payload … requires no software to do
//! the UDP packet decoding". Because it is pure hardware, it is alive the
//! moment power arrives — which is how boot code gets into a machine with
//! no PROMs, and how a wedged node can still be probed (the RISCWatch debug
//! path).

/// A JTAG command carried as a UDP payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JtagCommand {
    /// Write one 32-bit instruction word directly into the I-cache.
    WriteICache {
        /// Target address.
        addr: u32,
        /// Instruction word.
        data: u32,
    },
    /// Read a device register (returns its value in the reply).
    ReadRegister {
        /// Register number.
        reg: u16,
    },
    /// Release the CPU to execute from the I-cache.
    StartCpu,
    /// Halt the CPU (debug).
    HaltCpu,
    /// Single-step one instruction (RISCWatch).
    SingleStep,
    /// Read the node's hardware status word.
    ReadStatus,
}

/// Reply to a JTAG command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JtagReply {
    /// Command applied.
    Ok,
    /// Register or status value.
    Value(u32),
}

/// CPU execution state as seen through JTAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Power-on: CPU held, I-cache empty.
    Held,
    /// Released and executing.
    Running,
    /// Halted by the debugger.
    Halted,
}

/// The per-node Ethernet/JTAG controller state machine.
#[derive(Debug, Clone)]
pub struct JtagController {
    icache: Vec<(u32, u32)>,
    registers: [u32; 64],
    state: CpuState,
    steps: u64,
    packets_handled: u64,
}

impl Default for JtagController {
    fn default() -> Self {
        JtagController::new()
    }
}

impl JtagController {
    /// Power-on state: ready to receive packets immediately.
    pub fn new() -> JtagController {
        JtagController {
            icache: Vec::new(),
            registers: [0; 64],
            state: CpuState::Held,
            steps: 0,
            packets_handled: 0,
        }
    }

    /// Execute one command (hardware path — always available, even when
    /// the CPU is wedged).
    pub fn handle(&mut self, cmd: &JtagCommand) -> JtagReply {
        self.packets_handled += 1;
        match *cmd {
            JtagCommand::WriteICache { addr, data } => {
                self.icache.push((addr, data));
                JtagReply::Ok
            }
            JtagCommand::ReadRegister { reg } => {
                JtagReply::Value(self.registers[reg as usize % 64])
            }
            JtagCommand::StartCpu => {
                self.state = CpuState::Running;
                JtagReply::Ok
            }
            JtagCommand::HaltCpu => {
                self.state = CpuState::Halted;
                JtagReply::Ok
            }
            JtagCommand::SingleStep => {
                if self.state == CpuState::Halted {
                    self.steps += 1;
                }
                JtagReply::Ok
            }
            JtagCommand::ReadStatus => JtagReply::Value(self.status_word()),
        }
    }

    /// Hardware status word: state plus loaded-word count.
    pub fn status_word(&self) -> u32 {
        let s = match self.state {
            CpuState::Held => 0,
            CpuState::Running => 1,
            CpuState::Halted => 2,
        };
        (s << 24) | (self.icache.len() as u32 & 0x00FF_FFFF)
    }

    /// Current CPU state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Words loaded into the I-cache so far.
    pub fn loaded_words(&self) -> usize {
        self.icache.len()
    }

    /// Packets processed since power-on.
    pub fn packets_handled(&self) -> u64 {
        self.packets_handled
    }

    /// Instructions single-stepped (debug statistics).
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_at_power_on() {
        let mut c = JtagController::new();
        assert_eq!(c.state(), CpuState::Held);
        // First packet works with no prior setup — the no-PROM boot path.
        assert_eq!(
            c.handle(&JtagCommand::WriteICache {
                addr: 0,
                data: 0x6000_0000
            }),
            JtagReply::Ok
        );
        assert_eq!(c.loaded_words(), 1);
    }

    #[test]
    fn boot_load_then_start() {
        let mut c = JtagController::new();
        for i in 0..100u32 {
            c.handle(&JtagCommand::WriteICache {
                addr: i * 4,
                data: i,
            });
        }
        assert_eq!(c.loaded_words(), 100);
        c.handle(&JtagCommand::StartCpu);
        assert_eq!(c.state(), CpuState::Running);
        assert_eq!(c.packets_handled(), 101);
    }

    #[test]
    fn status_word_encodes_state_and_count() {
        let mut c = JtagController::new();
        c.handle(&JtagCommand::WriteICache { addr: 0, data: 0 });
        assert_eq!(c.status_word(), 1);
        c.handle(&JtagCommand::StartCpu);
        assert_eq!(c.status_word() >> 24, 1);
    }

    #[test]
    fn single_step_requires_halt() {
        let mut c = JtagController::new();
        c.handle(&JtagCommand::StartCpu);
        c.handle(&JtagCommand::SingleStep);
        assert_eq!(c.steps(), 0, "stepping a running CPU is ignored");
        c.handle(&JtagCommand::HaltCpu);
        c.handle(&JtagCommand::SingleStep);
        c.handle(&JtagCommand::SingleStep);
        assert_eq!(c.steps(), 2);
    }
}
