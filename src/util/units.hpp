// Physical constants used throughout oxmlc (CODATA 2018).
//
// All internal quantities are plain `double` in base SI units (volts, amperes,
// ohms, seconds, farads, joules, metres).
#pragma once

namespace oxmlc::phys {

inline constexpr double kBoltzmann = 1.380649e-23;            // J/K
inline constexpr double kElementaryCharge = 1.602176634e-19;  // C
inline constexpr double kRoomTemperature = 300.0;             // K
inline constexpr double kPi = 3.14159265358979323846;

}  // namespace oxmlc::phys
