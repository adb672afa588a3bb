#include "core/report.hpp"

#include <iomanip>
#include <ostream>

namespace tz {

// run_trojanzero_flow is defined in campaign/job.cpp, beside the salvage
// and insertion phases it shares with the campaign's salvage groups.
// This TU keeps the presentation layer, which reads only serializable
// fields (FlowMeta + scalar results) so a FlowResult deserialized from a
// campaign JSONL row prints exactly like a freshly computed one.

void print_table1_row(std::ostream& os, const FlowResult& r,
                      const BenchmarkSpec& paper) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::left << std::setw(7) << r.benchmark << std::right << std::fixed
     << std::setprecision(1);
  os << " gates " << std::setw(5) << r.meta.gates << " (paper "
     << paper.paper_gates << ")";
  os << " | Pth " << std::setprecision(4) << paper.pth;
  os << " | C " << std::setw(3) << r.salvage.candidates << " (paper "
     << paper.paper_candidates << ")";
  os << " | Eg " << std::setw(3) << r.salvage.expendable_gates << " (paper "
     << paper.paper_expendable << ")";
  os << " | HT " << (r.insertion.success ? r.insertion.ht_name : "no HT");
  os << std::setprecision(1);
  os << " | P(N/N'/N'') " << r.p_n.total_uw() << "/" << r.p_np.total_uw()
     << "/" << r.p_npp.total_uw() << " uW (paper " << paper.paper_power_n
     << "/" << paper.paper_power_np << "/" << paper.paper_power_npp << ")";
  os << " | A " << r.p_n.area_ge << "/" << r.p_np.area_ge << "/"
     << r.p_npp.area_ge << " GE (paper " << paper.paper_area_n << "/"
     << paper.paper_area_np << "/" << paper.paper_area_npp << ")";
  os << " | Pft " << std::scientific << std::setprecision(1) << r.pft
     << " (paper " << paper.paper_pft << ")\n";
  os.flags(flags);
  os.precision(precision);
}

void print_power_triple(std::ostream& os, const FlowResult& r,
                        const BenchmarkSpec& paper) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::fixed << std::setprecision(2);
  os << r.benchmark << "\n";
  os << "  dynamic uW  N " << std::setw(8) << r.p_n.dynamic_uw << "  N' "
     << std::setw(8) << r.p_np.dynamic_uw << "  N'' " << std::setw(8)
     << r.p_npp.dynamic_uw << "\n";
  os << "  leakage uW  N " << std::setw(8) << r.p_n.leakage_uw << "  N' "
     << std::setw(8) << r.p_np.leakage_uw << "  N'' " << std::setw(8)
     << r.p_npp.leakage_uw << "\n";
  os << "  area    GE  N " << std::setw(8) << r.p_n.area_ge << "  N' "
     << std::setw(8) << r.p_np.area_ge << "  N'' " << std::setw(8)
     << r.p_npp.area_ge << "   (paper totals " << paper.paper_area_n << "/"
     << paper.paper_area_np << "/" << paper.paper_area_npp << ")\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace tz
