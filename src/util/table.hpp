// Aligned text-table rendering for reports and counterexample traces.
#pragma once

#include <string>
#include <vector>

namespace autosva::util {

/// Builds plain-text tables with aligned columns: the verification
/// report's property table and formal::formatTrace's waveform.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);
    /// Inserts a horizontal separator line before the next row.
    void addSeparator();

    [[nodiscard]] std::string str() const;
    [[nodiscard]] size_t rowCount() const { return rows_.size(); }

private:
    struct Row {
        std::vector<std::string> cells;
        bool separatorBefore = false;
    };
    std::vector<std::string> header_;
    std::vector<Row> rows_;
    bool pendingSeparator_ = false;
};

} // namespace autosva::util
